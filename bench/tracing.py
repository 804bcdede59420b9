"""Span tracing of levylil's public functions, installed from outside.

The program itself records nothing.  ``install`` wraps every public function
of the traced modules and rebinds each wrapper under every name that refers
to the original in any loaded ``levylil`` module, so ``levylil.norming.u_of_R``,
``levylil.mc.u_of_R`` and ``levylil.u_of_R`` all record.  Calls made through
a reference taken before installation (a default argument, a closure) are not
seen.  Spans are kept in memory; ``write_jsonl`` dumps them when the run ends.
One ``Tracer`` records one pass of a workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("scenario", "simulate", "mc", "norming", "symbols", "classifiers")


def _simulate_ensemble_attrs(bound, result):
    # increments = paths x full-grid points: the work the kernels did
    grid = bound.arguments["grid"]
    return {"process": type(bound.arguments["process"]).__name__,
            "increments": int(bound.arguments["n_paths"]) * int(grid.times().size)}


def _save_attrs(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# counts read at the public boundary, keyed by span name
_ATTRS = {
    "simulate.simulate_ensemble": _simulate_ensemble_attrs,
    "simulate.save_ensemble_jsonl": _save_attrs,
}


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end, attrs.

    Single-threaded: the parent of a span is the innermost span still open.
    """

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end, attrs]
        self._open = []

    def wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, clock(), 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if attrs_of:
                span[4] = attrs_of(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self):
        """Wrap and rebind; returns a function that restores the originals."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"levylil.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "levylil" and not modname.startswith("levylil."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, obj))

        def restore():
            for module, attr, obj in patched:
                setattr(module, attr, obj)

        return restore


def write_jsonl(path, header, passes):
    """One header line, then one line per span; ``passes`` is a list of span
    lists, and ``id``/``parent`` index the spans of their own pass."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for n, spans in enumerate(passes):
            for i, (name, parent, start, end, attrs) in enumerate(spans):
                rec = {"pass": n, "id": i, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans):
    """Per-layer numbers for one traced pass, derived from its spans.

    ``<module>.s`` is the time inside the module's outermost spans (a module
    calling itself is not counted twice); ``<module>.self.s`` subtracts the
    part of each span covered by its child spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def module_of(i):
        return spans[i][0].split(".", 1)[0]

    def total(pred):
        return sum((s[3] - s[2] for s in spans if pred(s)), 0.0)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def outermost(i):
        mod, parent = module_of(i), spans[i][1]
        while parent >= 0:
            if module_of(parent) == mod:
                return False
            parent = spans[parent][1]
        return True

    def module_time(mod):
        return sum((spans[i][3] - spans[i][2] for i in range(n)
                    if module_of(i) == mod and outermost(i)), 0.0)

    def self_time(mod):
        return sum((spans[i][3] - spans[i][2] - child_time[i] for i in range(n)
                    if module_of(i) == mod), 0.0)

    def ensemble_time(kind):
        return total(lambda s: s[0] == "simulate.simulate_ensemble" and s[4]["process"] == kind)

    sim_time = total(lambda s: s[0] == "simulate.simulate_ensemble")
    increments = sum(s[4]["increments"] for s in spans if s[0] == "simulate.simulate_ensemble")
    saves = [s for s in spans if s[0] == "simulate.save_ensemble_jsonl"]
    return {
        "scenario.run_scenario.s": total(lambda s: s[0] == "scenario.run_scenario"),
        "scenario.self.s": self_time("scenario"),
        "scenario.validate_scenario.s": total(lambda s: s[0] == "scenario.validate_scenario"),
        "simulate.save_ensemble.s": sum((s[3] - s[2] for s in saves), 0.0),
        "simulate.save_ensemble.bytes": sum(s[4]["bytes"] for s in saves),
        "simulate.load_ensemble.s": total(lambda s: s[0] == "simulate.load_ensemble_jsonl"),
        "simulate.ensemble_stable.s": ensemble_time("SymmetricStableProcess"),
        "simulate.ensemble_cp.s": ensemble_time("CompoundPoissonProcess"),
        "simulate.ensemble_stable_like.s": ensemble_time("StableLikeProcess"),
        "simulate.increments": increments,
        "simulate.increments_per_s": increments / sim_time if sim_time > 0 else 0.0,
        "mc.s": module_time("mc"),
        "mc.calls": sum(1 for i in range(n) if module_of(i) == "mc"),
        "mc.chung_statistic.s": total(lambda s: s[0] == "mc.chung_statistic"),
        "norming.s": module_time("norming"),
        "norming.ball_extremum.calls": calls("norming.ball_extremum"),
        "norming.ball_extremum.s": total(lambda s: s[0] == "norming.ball_extremum"),
        "norming.u_of_R.calls": calls("norming.u_of_R"),
        "norming.u_inverse.calls": calls("norming.u_inverse"),
        "symbols.eval_exponent.calls": calls("symbols.eval_exponent"),
        "symbols.eval_exponent.s": total(lambda s: s[0] == "symbols.eval_exponent"),
        "symbols.eval_pU.calls": calls("symbols.eval_pU"),
        "symbols.eval_pU.s": total(lambda s: s[0] == "symbols.eval_pU"),
        "classifiers.classify_integral_at_zero.s":
            total(lambda s: s[0] == "classifiers.classify_integral_at_zero"),
        "classifiers.self.s": self_time("classifiers"),
    }
