"""Span and counter trace built by wrapping the library from outside.

`Tracer.instrument(cf)` replaces the public functions of each measured
module (and a few named methods and private stages) with wrappers, and
rebinds every name other modules imported them under, so a call made
through `factoring.univariate_roots` is traced like one made through
`dense.univariate_roots`. Nothing in the library itself changes.

A span records (id, name, start, end, parent). Self time is a span's
duration minus the time its wrapped children took. Spans stay in memory
and are written as JSON lines by `Tracer.write`. Hot leaf methods (field
arithmetic, builder gate calls) are counted, not spanned.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import checker

LAYERS = ("fields", "circuit", "dense", "transforms", "lifting",
          "factoring", "designs", "pit", "expsum")

# methods traced as spans, and private stages worth a span of their own
SPAN_METHODS = {
    ("circuit", "Circuit"): ("evaluate",),
    ("circuit", "CircuitBuilder"): ("finish",),
    ("pit", "HittingSet"): ("prefix", "points"),
}
PRIVATE_SPANS = {
    "lifting": ("_residual_check",),   # residual certificate of lift_root
    "factoring": ("_combine_dense",),  # one call per subset screened
}
# hot methods: counted only
COUNT_METHODS = {
    ("fields", "Rationals"): ("add", "mul", "inv"),
    ("fields", "PrimeField"): ("add", "mul", "inv"),
    ("circuit", "CircuitBuilder"): ("add", "mul", "const", "inp"),
}


def _after_finish(tr, res):
    tr.counts["circuit.finish_gates"] += len(res.gates)


def _after_expand_outputs(tr, res):
    tr.counts["dense.expand_terms_out"] += sum(len(p.terms) for p in res)


def _after_truncate(tr, res):
    tr.counts["transforms.truncate_wires_out"] += checker.wires(res)


def _after_compose(tr, res):
    tr.counts["lifting.compose_wires_out"] += checker.wires(res)


def _after_extract(tr, res):
    tr.counts["factoring.accepted"] += 1


def _after_formula(tr, res):
    tr.counts["expsum.formula_wires_out"] += checker.wires(res)


def _after_factor_vnp(tr, res):
    tr.counts["expsum.aux_out"] += res[0].m


def _after_hitset(tr, res):
    tr.counts["pit.points_checked"] += res.points_checked


AFTER = {
    "circuit.CircuitBuilder.finish": _after_finish,
    "dense.expand_outputs": _after_expand_outputs,
    "transforms.truncate_deg": _after_truncate,
    "lifting.compose_root": _after_compose,
    "factoring.extract_factor": _after_extract,
    "expsum.circuit_to_formula": _after_formula,
    "expsum.factor_vnp": _after_factor_vnp,
    "pit.pit_hitset": _after_hitset,
}


class Tracer:
    def __init__(self):
        self.spans = []     # (id, name, start_ns, end_ns, parent_id)
        self.stack = []     # open frames: [id, start_ns, child_ns, name]
        self.agg = {}       # name -> [calls, total_ns, self_ns]
        self.edges = {}     # (parent name, child name) -> calls
        self.counts = Counter()
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, time.perf_counter_ns(), 0, name]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame[1]
        parent = self.stack[-1] if self.stack else None
        name = frame[3]
        if parent is not None:
            parent[2] += dur
            key = (parent[3], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        self.spans.append((frame[0], name, frame[1], end, parent[0] if parent else 0))
        a = self.agg.setdefault(name, [0, 0, 0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[2]

    def _after(self, name, res):
        hook = AFTER.get(name)
        if hook is None:
            return
        # the hook's own time is kept out of the enclosing span's self time
        t0 = time.perf_counter_ns()
        hook(self, res)
        if self.stack:
            self.stack[-1][2] += time.perf_counter_ns() - t0

    def span_wrapper(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._after(name, res)
            return res
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- installation ------------------------------------------------------------

    def instrument(self, cf):
        """Wrap the measured layers of the imported package `cf`."""
        replaced = {}
        for layer in LAYERS:
            mod = getattr(cf, layer)
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += PRIVATE_SPANS.get(layer, ())
            for n in names:
                fn = getattr(mod, n)
                replaced[id(fn)] = (fn, self.span_wrapper(f"{layer}.{n}", fn))
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(getattr(cf, layer), cls_name)
            for m in methods:
                setattr(cls, m, self.span_wrapper(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
        for (layer, cls_name), methods in COUNT_METHODS.items():
            cls = getattr(getattr(cf, layer), cls_name)
            for m in methods:
                key = f"{layer}.{m}_calls" if layer == "fields" else "circuit.builder_calls"
                setattr(cls, m, self.count_wrapper(key, getattr(cls, m)))
        # rebind every module-level name bound to a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == cf.__name__ or mod_name.startswith(cf.__name__ + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- reading -------------------------------------------------------------------

    def snapshot(self):
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "edges": dict(self.edges),
            "counts": dict(self.counts),
        }

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def raw_quantities(snap):
    """Additive quantities (counts and seconds) read from a snapshot."""
    agg, edges, counts = snap["agg"], snap["edges"], snap["counts"]

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

    return {
        "fields.add_calls": counts.get("fields.add_calls", 0),
        "fields.mul_calls": counts.get("fields.mul_calls", 0),
        "fields.inv_calls": counts.get("fields.inv_calls", 0),
        "circuit.builder_calls": counts.get("circuit.builder_calls", 0),
        "circuit.finish_gates": counts.get("circuit.finish_gates", 0),
        "circuit.substitute_calls": calls("circuit.substitute"),
        "circuit.substitute_s": self_s("circuit.substitute"),
        "circuit.evaluate_calls": calls("circuit.Circuit.evaluate"),
        "circuit.evaluate_s": self_s("circuit.Circuit.evaluate"),
        "dense.expand_calls": calls("dense.expand_outputs"),
        "dense.expand_s": self_s("dense.expand", "dense.expand_outputs"),
        "dense.expand_terms_out": counts.get("dense.expand_terms_out", 0),
        "dense.roots_calls": calls("dense.univariate_roots"),
        "dense.roots_s": self_s("dense.univariate_roots"),
        "dense.divides_calls": calls("dense.divides"),
        "dense.divides_s": self_s("dense.divides"),
        "transforms.truncate_calls": calls("transforms.truncate_deg"),
        "transforms.truncate_s": self_s("transforms.truncate_deg"),
        "transforms.truncate_wires_out": counts.get("transforms.truncate_wires_out", 0),
        "transforms.homogenize_s": self_s("transforms.homogenize", "transforms.homogenize_upto",
                                          "transforms.homog_component_interp"),
        "transforms.genset_calls": calls("transforms.generator_set"),
        "transforms.genset_s": self_s("transforms.generator_set"),
        "transforms.translate_s": self_s("transforms.translate"),
        "transforms.monic_s": self_s("transforms.make_monic", "transforms.undo_monic_shift"),
        "transforms.hasse_s": self_s("transforms.hasse_derivative_circuit"),
        "lifting.lift_root_self_s": self_s("lifting.lift_root"),
        "lifting.recurrence_s": self_s("lifting.build_A_recurrence"),
        "lifting.compose_s": self_s("lifting.compose_root"),
        "lifting.compose_wires_out": counts.get("lifting.compose_wires_out", 0),
        "lifting.translations_tried": edges.get(("lifting.lift_root", "dense.expand"), 0),
        "factoring.extract_self_s": self_s("factoring.extract_factor"),
        "factoring.shift_s": self_s("factoring.separating_shift"),
        "factoring.shift_calls": calls("factoring.separating_shift"),
        "factoring.shift_candidates": edges.get(("factoring.separating_shift", "dense.expand"), 0),
        "factoring.approx_s": self_s("factoring.approx_roots"),
        "factoring.combine_s": self_s("factoring.combine_roots"),
        "factoring.subsets_screened": calls("factoring._combine_dense"),
        "factoring.accepted": counts.get("factoring.accepted", 0),
        "designs.nw_design_calls": calls("designs.nw_design"),
        "designs.nw_design_s": self_s("designs.nw_design"),
        "pit.hitset_s": self_s("pit.pit_hitset"),
        "pit.prefix_s": self_s("pit.HittingSet.prefix", "pit.HittingSet.points"),
        "pit.points_checked": counts.get("pit.points_checked", 0),
        "pit.sz_s": self_s("pit.pit_sz"),
        "pit.zero_count_s": self_s("pit.exhaustive_zero_count"),
        "expsum.factor_vnp_self_s": self_s("expsum.factor_vnp"),
        "expsum.expand_s": self_s("expsum.exp_sum_expand"),
        "expsum.leaf_substitute_s": self_s("expsum.leaf_substitute"),
        "expsum.formula_s": self_s("expsum.circuit_to_formula"),
        "expsum.formula_wires_out": counts.get("expsum.formula_wires_out", 0),
        "expsum.aux_out": counts.get("expsum.aux_out", 0),
    }


def layer_metrics(setup_snap, end_snap, rounds):
    """Per-layer values for one set-up plus one round of the operation set."""
    before = raw_quantities(setup_snap)
    after = raw_quantities(end_snap)
    per = {k: before[k] + (after[k] - before[k]) / rounds for k in after}

    def ratio(a, b):
        return a / b if b else 0.0

    per["factoring.shift_yield"] = ratio(per.pop("factoring.shift_calls"),
                                         per["factoring.shift_candidates"])
    per["factoring.subset_yield"] = ratio(per.pop("factoring.accepted"),
                                          per["factoring.subsets_screened"])
    return per
