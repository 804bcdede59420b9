"""Scenario-driven orchestration: declarative JSON in, tables and reports out.

A scenario names one law (a ``process``, or a ``measure`` with an optional
``drift``; giving both exits 2 before any output), a grid, a master seed and
a list of analyses; the law's schema is derived from the registries of its
profiles, measure variants and process kinds.  Analyses execute in the
fixed dependency order

    symbol -> norming -> classify -> simulate -> verify

(verification analyses read the ensembles produced by the simulate stage and
nothing else; no analysis reads another's output files).  Each run writes one
JSON report plus one CSV per successful analysis, every file embedding the
scenario hash and the master seed; a failed analysis is recorded in the
report and does not stop the others.  Runs are idempotent: identical scenario and seed give
byte-identical outputs under --canonical-output (timestamps omitted).

Exit codes (CLI): 0 success, 1 numeric failure, 2 schema/usage error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import classifiers, mc, measures, norming, simulate, symbols
from .errors import LevyLilError
from .measures import LevyTriplet, measure_from_dict, profile_from_dict
from .simulate import (_BLOCK_POINTS, PathGrid, SymmetricStableProcess, _atomic_write,
                       process_from_dict, process_from_triplet, save_ensemble_jsonl,
                       simulate_ensemble, spec_hash)


class SchemaError(ValueError):
    """Scenario violates the published schema (CLI exit code 2)."""


def _one_of(registry, *first):
    """A family's schema: ``first``, then per class of ``registry`` (tag ->
    class) an object of its tag plus its dataclass fields, each with the
    schema of its annotated type in ``_FIELD_SCHEMAS``; the fields without a
    default are required."""
    branches = []
    for tag, cls in registry.items():
        fields = dataclasses.fields(cls)
        branches.append({
            "type": "object",
            "properties": {cls._key: {"const": tag},
                           **{f.name: _FIELD_SCHEMAS[f.type] for f in fields}},
            "required": [cls._key, *(f.name for f in fields if f.default is dataclasses.MISSING)],
            "additionalProperties": False})
    return {"oneOf": [*first, *branches]}


_NUMBER = {"type": "number"}
# the schema of a declared field, by its annotated type (measures._FIELD_FORMS)
_FIELD_SCHEMAS = {"float": _NUMBER,
                  "Samples": {"type": "array", "items": _NUMBER},
                  # [location, mass] pairs, of an atomic measure or a compound-Poisson process
                  "Atoms": {"type": "array", "minItems": 1,
                            "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                      "items": _NUMBER}}}
_FIELD_SCHEMAS["Profile"] = _PROFILE_SCHEMA = _one_of(measures._PROFILE_KINDS, _NUMBER)
_FIELD_SCHEMAS["Coefficient"] = {"oneOf": [{"const": measures.NORMALIZED}, _PROFILE_SCHEMA]}
_MEASURE_SCHEMA = _one_of(measures._MEASURE_VARIANTS)
_PROCESS_SCHEMA = _one_of(simulate._PROCESS_CLASSES)

_GRID_SCHEMA = {
    "type": "object",
    "properties": {"t_max": {"type": "number", "exclusiveMinimum": 0},
                   "steps": {"type": "integer", "minimum": 1},
                   "layout": {"enum": ["uniform", "geometric"]},
                   "levels": {"type": "integer", "minimum": 1},
                   "points_per_level": {"type": "integer", "minimum": 1}},
    "required": ["t_max", "steps"],
    "additionalProperties": False,
}


_NUM_LIST = {"type": "array", "minItems": 1, "items": {"type": "number"}}

STAGES = ("symbol", "norming", "classify", "simulate", "verify")


class _Analysis(NamedTuple):
    """``run(ctx, spec, ens, tag) -> (csv_header, rows, result)``; ``ens`` is the
    verify stage's ensemble (else None), ``tag`` the stem of the output files."""

    name: str
    stage: str
    properties: dict
    required: tuple
    run: Callable


_ANALYSES: dict = {}


def _analysis(name, stage, properties, required=()):
    """Register the decorated runner; registration order is schema order."""
    def register(run):
        _ANALYSES[name] = _Analysis(name, stage, properties, tuple(required), run)
        return run
    return register


def _power_log_family(a, b=0.0, c=0.0):
    def f(t):
        out = t ** a
        if b:
            out *= abs(math.log(t)) ** b
        if c:
            out *= math.log(abs(math.log(t))) ** c
        return out
    return f


class _Context:
    """A run's settings and its one law, read once as a triplet."""

    def __init__(self, doc):
        self.scen_hash = spec_hash(doc)
        self.outdir = doc.get("output_dir", "out")
        self.x = float(doc.get("x", 0.0))
        self.seed = int(doc["seed"])
        self.paths = int(doc.get("paths", 1000))
        self.grid = PathGrid.from_dict(doc["grid"]) if "grid" in doc else None
        self.process = self.triplet = None
        if "process" in doc:
            mixed = " and ".join(repr(k) for k in ("measure", "drift") if k in doc)
            if mixed:
                raise SchemaError(f"a scenario names one law: 'process' or {mixed}, not both")
            self.process = process_from_dict(doc["process"])
            self.triplet = self.process.levy_triplet
        elif "measure" in doc:
            drift = profile_from_dict(doc["drift"]) if "drift" in doc else 0.0
            self.triplet = LevyTriplet(measure=measure_from_dict(doc["measure"]), drift=drift)
            with contextlib.suppress(ValueError):   # no sampler: need_process raises it
                self.process = process_from_triplet(self.triplet)
        self.simulations = {}   # ensemble id -> its simulate spec
        for spec in doc["analyses"]:
            eid = spec.get("ensemble_id", "main")
            if spec["name"] == "simulate" and self.simulations.setdefault(eid, spec) is not spec:
                raise SchemaError(f"two simulate analyses build ensemble {eid!r}")
        unbuilt = {spec.get("ensemble_id", "main") for spec in doc["analyses"]
                   if _ANALYSES[spec["name"]].stage == "verify"} - set(self.simulations)
        if self.simulations and unbuilt:   # with no simulate analysis, the full grid
            raise SchemaError(f"no simulate analysis builds ensemble {min(unbuilt)!r}")
        self.ensembles = {}

    def need_process(self):
        return self.process or process_from_triplet(self.triplet)

    def need_ensemble(self, spec):
        """The ensemble of ``spec``'s id, built once from that id's simulate spec."""
        eid = spec.get("ensemble_id", "main")
        if eid not in self.ensembles:
            self.ensembles[eid] = None   # if it fails, no later analysis builds another
            self.ensembles[eid] = simulate_ensemble(
                self.need_process(), self.x, self.grid, self.seed, self.paths,
                record_times=self.simulations.get(eid, {}).get("record_times"))
        if self.ensembles[eid] is None:
            raise LevyLilError(f"ensemble {eid!r} was not built: its simulate analysis failed")
        return self.ensembles[eid]


# --------------------------------------------------------------------------
# analyses, in schema order
# --------------------------------------------------------------------------

@_analysis("pu_grid", "symbol", {"x_values": _NUM_LIST, "xi_values": _NUM_LIST,
                                 "method": {"enum": ["auto", "closed", "quadrature"]}},
           required=["x_values", "xi_values"])
def _pu_grid(ctx, spec, ens, tag):
    m = ctx.triplet.measure
    rows = [(float(xv), float(xiv),
             symbols.eval_pU(m, float(xv), float(xiv), method=spec.get("method", "auto")))
            for xv in spec["x_values"] for xiv in spec["xi_values"]]
    return "x,xi,pu", rows, {"rows": len(rows), "csv": f"{tag}.csv"}


@_analysis("exponent_grid", "symbol", {"x_values": _NUM_LIST, "xi_values": _NUM_LIST},
           required=["x_values", "xi_values"])
def _exponent_grid(ctx, spec, ens, tag):
    xs, xis = spec["x_values"], spec["xi_values"]
    re, im = (part.tolist() for part in symbols._exponent_on_grid(ctx.triplet, xs, xis))
    rows = [(float(xv), float(xiv), re[i][j], im[i][j])
            for i, xv in enumerate(xs) for j, xiv in enumerate(xis)]
    return "x,xi,re,im", rows, {"rows": len(rows), "csv": f"{tag}.csv"}


@_analysis("tail_mass_grid", "symbol", {"r_values": _NUM_LIST}, required=["r_values"])
def _tail_mass_grid(ctx, spec, ens, tag):
    m = ctx.triplet.measure
    rows = [(float(r), symbols.tail_mass(m, ctx.x, float(r))) for r in spec["r_values"]]
    return "r,tail_mass", rows, {"rows": len(rows), "csv": f"{tag}.csv"}


@_analysis("sector", "symbol", {"x_window": _NUM_LIST, "xi_grid": _NUM_LIST},
           required=["x_window", "xi_grid"])
def _sector(ctx, spec, ens, tag):
    est = symbols.sector_estimate(ctx.triplet, tuple(spec["x_window"]), spec["xi_grid"])
    return ("refinement,sup_ratio", list(enumerate(est.history)),
            {"value": est.value, "flag": est.flag, "history": list(est.history)})


@_analysis("norming_table", "norming",
           {"kind": {"enum": ["u", "u_inverse", "chung_rate", "upper_v"]},
            "arguments": _NUM_LIST, "epsilon": {"type": "number"},
            "n": {"type": "integer", "minimum": 1}},
           required=["kind", "arguments"])
def _norming_table(ctx, spec, ens, tag):
    nf = norming.build_norming_function(ctx.triplet.measure, ctx.x, spec["kind"],
                                        spec["arguments"], epsilon=spec.get("epsilon", 0.5),
                                        n=spec.get("n", 1))
    args, vals = nf.table()
    return ("argument,value", list(zip(args.tolist(), vals.tolist())),
            {"kind": spec["kind"], "form": nf.form, "csv": f"{tag}.csv"})


@_analysis("kappa", "norming", {"R_grid": _NUM_LIST}, required=["R_grid"])
def _kappa(ctx, spec, ens, tag):
    est = norming.kappa_estimate(ctx.triplet.measure, ctx.x, spec["R_grid"])
    return ("R,kappa", list(zip(est.R_grid, est.kappa_values)),
            {"kappa": est.kappa, "values": list(est.kappa_values)})


@_analysis("upper_function_test", "classify",
           {"epsilon": {"type": "number"}, "n": {"type": "integer", "minimum": 1},
            "t_max": {"type": "number"}, "levels": {"type": "integer", "minimum": 8},
            "ell_one": {"type": "boolean"}},
           required=["epsilon", "t_max", "levels"])
def _upper_function_test(ctx, spec, ens, tag):
    verdict = classifiers.upper_function_test(
        ctx.triplet.measure, ctx.x, spec["epsilon"], spec.get("n", 1),
        spec["t_max"], spec["levels"], ell_one=spec.get("ell_one", False))
    return "index,block", list(enumerate(verdict.block_values)), verdict.to_dict()


@_analysis("lower_tail_test", "classify",
           {"v_exponent": {"type": "number"}, "v_log_exponent": {"type": "number"},
            "C": {"type": "number"}, "t_max": {"type": "number"},
            "levels": {"type": "integer", "minimum": 8}},
           required=["v_exponent", "C", "t_max", "levels"])
def _lower_tail_test(ctx, spec, ens, tag):
    v = _power_log_family(spec["v_exponent"], spec.get("v_log_exponent", 0.0))
    verdict = classifiers.lower_tail_test(ctx.triplet.measure, v, spec["C"],
                                          spec["t_max"], spec["levels"])
    return "index,block", list(enumerate(verdict.block_values)), verdict.to_dict()


@_analysis("symbol_liminf_test", "classify",
           {"g_exponent": {"type": "number"}, "g_scale": {"type": "number"},
            "w_exponent": {"type": "number"}, "w_log_exponent": {"type": "number"},
            "w_loglog_exponent": {"type": "number"}, "t_max": {"type": "number"},
            "levels": {"type": "integer", "minimum": 8}},
           required=["g_exponent", "w_exponent", "t_max", "levels"])
def _symbol_liminf_test(ctx, spec, ens, tag):
    scale = spec.get("g_scale", 1.0)
    expo = spec["g_exponent"]
    w = _power_log_family(spec["w_exponent"], spec.get("w_log_exponent", 0.0),
                          spec.get("w_loglog_exponent", 0.0))
    verdict = classifiers.symbol_liminf_test(lambda xi: scale * xi ** expo, w,
                                             spec["t_max"], spec["levels"])
    return "index,level", list(enumerate(verdict.block_values)), verdict.to_dict()


def _per_time_summary(ens, pool):
    """Per stored time, the mean of ``positions - x0`` and the median of
    ``running_sup`` over the paths, bit-identical to
    ``np.mean(positions - x0, axis=0)`` and ``np.median(running_sup, axis=0)``.

    The columns are walked in tiles of about ``_BLOCK_POINTS`` points, on
    the threads of ``pool``, so no temporary grows with the ensemble.  A tile
    never has one column unless the ensemble has one: numpy sums a single
    column pairwise, and several columns row by row.
    """
    pos, rs = ens.positions, ens.running_sup
    n, cols = pos.shape
    mean, median = np.empty(cols), np.empty(cols)
    width = max(2, _BLOCK_POINTS // n)
    bounds = [0, *range(width, cols - 1, width), cols]

    def tile(c0, c1):
        mean[c0:c1] = np.mean(pos[:, c0:c1] - ens.x0, axis=0)
        median[c0:c1] = np.median(rs[:, c0:c1], axis=0)

    list(pool.map(tile, bounds[:-1], bounds[1:]))
    return mean, median


@_analysis("simulate", "simulate", {"record_times": _NUM_LIST,
                                    "save": {"enum": ["jsonl"]},
                                    "ensemble_id": {"type": "string"}})
def _simulate(ctx, spec, ens, tag):
    ens = ctx.need_ensemble(spec)
    # A save's SHA-256 and the summary's tiles release the GIL, so they share a pool.
    # Nothing forks while it runs, and the tiles call no public function: traced calls
    # keep one stack.
    from concurrent.futures import ThreadPoolExecutor   # kept off the import of levylil
    with ThreadPoolExecutor(simulate._WORKERS) as pool:
        path = os.path.join(ctx.outdir, f"{tag}_paths.jsonl")
        saved = (spec.get("save") == "jsonl"
                 and pool.submit(save_ensemble_jsonl, ens, path, {"scenario_hash": ctx.scen_hash}))
        mean, median = _per_time_summary(ens, pool)
        if saved:
            saved.result()
    rows = list(zip(ens.times.tolist(), mean.tolist(), median.tolist()))
    return ("t,mean_displacement,median_running_sup", rows,
            {"paths": ens.n_paths, "grid_points": int(ens.times.size),
             "final_median_running_sup": float(median[-1]),
             "spec_hash": ens.metadata()["spec_hash"]})


@_analysis("sup_probability", "verify", {"t": {"type": "number"}, "R": {"type": "number"},
                                         "direction": {"enum": ["ge", "lt"]}},
           required=["t", "R"])
def _sup_probability(ctx, spec, ens, tag):
    t = ens.nearest_time(spec["t"])
    est = mc.estimate_sup_probability(ens, t, spec["R"], spec.get("direction", "ge"))
    return ("t,R,p_hat,standard_error",
            [(t, spec["R"], est.p_hat, est.standard_error)], est.to_dict())


@_analysis("maximal_inequality", "verify", {"t_list": _NUM_LIST, "R_list": _NUM_LIST},
           required=["t_list", "R_list"])
def _maximal_inequality(ctx, spec, ens, tag):
    rep = mc.maximal_inequality_check(ens, ctx.triplet.measure, ctx.x,
                                      spec["t_list"], spec["R_list"])
    rows = [(r["t"], r["R"], r["c1_candidate"], r["c2_candidate"]) for r in rep.pop("rows")]
    return "t,R,c1_candidate,c2_candidate", rows, rep


@_analysis("multi_interval_decay", "verify",
           {"R": {"type": "number"}, "m_max": {"type": "integer", "minimum": 1}},
           required=["R", "m_max"])
def _multi_interval_decay(ctx, spec, ens, tag):
    rep = mc.multi_interval_decay(ens, ctx.triplet.measure, ctx.x, spec["R"], spec["m_max"])
    return "m,q", list(zip(rep["m"], rep["q"])), rep


@_analysis("spitzer", "verify", {"t_list": _NUM_LIST}, required=["t_list"])
def _spitzer(ctx, spec, ens, tag):
    rows = mc.spitzer_estimate(ens, ctx.x, spec["t_list"])
    return ("t,p_hat,standard_error",
            [(r["t"], r["p_hat"], r["standard_error"]) for r in rows], {"rows": rows})


@_analysis("etemadi", "verify", {"C": {"type": "number"}, "v_exponent": {"type": "number"},
                                 "v_log_exponent": {"type": "number"}, "t_list": _NUM_LIST},
           required=["C", "v_exponent", "t_list"])
def _etemadi(ctx, spec, ens, tag):
    v = _power_log_family(spec["v_exponent"], spec.get("v_log_exponent", 0.0))
    rep = mc.etemadi_check(ens, v, spec["C"], spec["t_list"])
    return ("t,v,p_marginal,p_sup,tail_lower_bound",
            [(r["t"], r["v"], r["marginal"]["p_hat"], r["sup"]["p_hat"], r["tail_lower_bound"])
             for r in rep["rows"]], rep)


@_analysis("charfn_bound", "verify", {"xi_list": _NUM_LIST, "t_list": _NUM_LIST,
                                      "epsilon": {"type": "number"}},
           required=["xi_list", "t_list"])
def _charfn_bound(ctx, spec, ens, tag):
    proc = ens.process   # stable: run_scenario checks it
    family = symbols.SymbolFamily.from_stable(proc.alpha, proc.scale)
    rep = mc.empirical_charfn_bound(ens, family, spec["xi_list"], spec["t_list"],
                                    epsilon=spec.get("epsilon"))
    rows = [(r["t"], r["xi"], r["modulus"], r["bound"], int(r["violated"]))
            for r in rep.pop("rows")]
    return "t,xi,modulus,bound,violated", rows, rep


@_analysis("chung_statistic", "verify", {"t_lo": {"type": "number"},
                                         "t_hi": {"type": "number"},
                                         "rate_exponent": {"type": "number"}},
           required=["t_lo", "t_hi"])
def _chung_statistic(ctx, spec, ens, tag):
    stat = mc.chung_statistic(ens, ctx.triplet.measure, ctx.x, spec["t_lo"], spec["t_hi"],
                              rate_exponent=spec.get("rate_exponent"))
    return "probe_time,rate", list(zip(stat.probe_times, stat.rates)), stat.summary()


def _analysis_schema(a: _Analysis) -> dict:
    props = {"name": {"const": a.name},
             "label": {"type": "string", "pattern": "^[A-Za-z0-9_.-]+$"}, **a.properties}
    if a.stage == "verify":
        props["ensemble_id"] = {"type": "string"}
    return {"type": "object", "properties": props,
            "required": ["name", *a.required], "additionalProperties": False}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "levylil scenario",
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "x": {"type": "number"},
        "drift": _PROFILE_SCHEMA,
        "measure": _MEASURE_SCHEMA,
        "process": _PROCESS_SCHEMA,
        "grid": _GRID_SCHEMA,
        "paths": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
        "analyses": {"type": "array", "minItems": 1,
                     "items": {"oneOf": [_analysis_schema(a) for a in _ANALYSES.values()]}},
    },
    "required": ["seed", "analyses"],
    "additionalProperties": False,
}


def _refine_error(err):
    """Descend oneOf failures into the branch whose discriminator matched so
    the message names the offending field instead of the whole instance."""
    from jsonschema.exceptions import best_match
    for _ in range(8):
        if not err.context:
            return err
        by_branch = {}
        for sub in err.context:
            by_branch.setdefault(sub.schema_path[0], []).append(sub)
        # a branch whose discriminator or whole-instance type fails is not the one meant
        viable = {i: errs for i, errs in by_branch.items()
                  if not any(s.validator == "const" or (s.validator == "type" and not s.path)
                             for s in errs)}
        consts = [s for errs in by_branch.values() for s in errs if s.validator == "const"]
        if not viable and consts and len({tuple(s.path) for s in consts}) == 1:
            # every branch rejects the same discriminator: its value is unknown
            err = consts[0]
            err.message = (f"unknown value {err.instance!r}; expected one of "
                           f"{[s.validator_value for s in consts]}")
            return err
        pool = [e for errs in (viable or by_branch).values() for e in errs]
        for kind in ("additionalProperties", "required"):
            picked = [e for e in pool if e.validator == kind]
            if picked:
                err = picked[0]
                break
        else:
            err = best_match(pool) or pool[0]
    return err


def validate_scenario(doc):
    # imported here, its only use, so that importing the package skips it
    from jsonschema import Draft202012Validator, validators
    from jsonschema.exceptions import relevance
    # JSON types as the code reads them: an integer is a Python int (not
    # 20.0), a number is finite as a float (not NaN, Infinity or 1e400)
    types = Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda _, x: (isinstance(x, (int, float)) and not isinstance(x, bool)
                                and abs(x) <= sys.float_info.max)})
    validator = validators.extend(Draft202012Validator, type_checker=types)(SCENARIO_SCHEMA)
    # the top-level error: _refine_error, not best_match, descends its oneOf
    err = max(validator.iter_errors(doc), key=relevance, default=None)
    if err is not None:
        err = _refine_error(err)
        raise SchemaError(f"schema violation at {err.json_path}: {err.message}")


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    validate_scenario(doc)
    return doc


def _run_analysis(ctx: _Context, spec: dict, tag: str) -> dict:
    """Run one analysis through its registry entry and write its CSV."""
    entry = _ANALYSES[spec["name"]]
    ens = ctx.need_ensemble(spec) if entry.stage == "verify" else None
    header, rows, result = entry.run(ctx, spec, ens, tag)
    _atomic_write(os.path.join(ctx.outdir, f"{tag}.csv"),
                  f"# scenario_hash={ctx.scen_hash}\n# seed={ctx.seed}\n" + header + "\n"
                  + "\n".join(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                       for v in row) for row in rows)
                  + ("\n" if rows else ""))
    return result


def run_scenario(scenario, *, stages=None, seed: Optional[int] = None,
                 paths: Optional[int] = None, steps: Optional[int] = None,
                 out: Optional[str] = None, canonical: bool = False) -> dict:
    """Execute a scenario (path or dict); returns the report dict.

    A usage error raises ``SchemaError`` before the output directory is
    made: an analysis without a law (all but ``symbol_liminf_test`` read
    one), a simulation without a grid, or ``charfn_bound`` on a law whose
    sampler is not stable.  A numeric failure of one analysis
    (``LevyLilError``, ``ValueError``, ``OverflowError`` or ``MemoryError``;
    a law with no sampler fails so at its simulation) is recorded as its
    result, ``{"status": "failed", "analysis", "arguments", "error"}``, and
    writes no CSV; the later analyses still run and ``report.json`` is
    written.  Then a ``LevyLilError`` names every failed analysis.
    """
    if isinstance(scenario, (str, os.PathLike)):
        doc = load_scenario(scenario)
    else:
        doc = json.loads(json.dumps(scenario))
        validate_scenario(doc)
    if seed is not None:
        doc["seed"] = int(seed)
    if paths is not None:
        doc["paths"] = int(paths)
    if steps is not None:
        doc.setdefault("grid", {})["steps"] = int(steps)
    if out is not None:
        doc["output_dir"] = out
    validate_scenario(doc)

    try:
        ctx = _Context(doc)
    except (ValueError, TypeError) as exc:
        # a constructor rejected a value that the schema lets through
        raise SchemaError(f"invalid scenario: {exc}") from exc
    wanted = STAGES if stages is None else stages
    staged = sorted((STAGES.index(_ANALYSES[spec["name"]].stage), i)
                    for i, spec in enumerate(doc["analyses"])
                    if _ANALYSES[spec["name"]].stage in wanted)
    run_stages = {STAGES[stage] for stage, _ in staged}
    names = {doc["analyses"][i]["name"] for _, i in staged}
    lawless = sorted(names - {"symbol_liminf_test"}) if ctx.triplet is None else []
    if lawless:
        raise SchemaError(f"analyses need a law, a 'measure' or a 'process': "
                          f"{', '.join(lawless)}")
    if ctx.grid is None and {"simulate", "verify"} & run_stages:
        raise SchemaError("simulate needs a 'grid'" if "simulate" in run_stages
                          else "verification analyses need a 'grid' and a simulate analysis")
    if ("charfn_bound" in names and ctx.process is not None
            and not isinstance(ctx.process, SymmetricStableProcess)):
        raise SchemaError("charfn_bound is available for stable processes")
    os.makedirs(ctx.outdir, exist_ok=True)

    results, failed = {}, []
    for _, i in staged:
        spec = doc["analyses"][i]
        tag = f"{i:02d}_{spec.get('label', spec['name'])}"
        try:
            results[tag] = _run_analysis(ctx, spec, tag)
        except (LevyLilError, ValueError, OverflowError, MemoryError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            failed.append(f"{tag}: {error}")
            results[tag] = {"status": "failed", "analysis": spec["name"],
                            "arguments": {k: v for k, v in spec.items()
                                          if k not in ("name", "label")},
                            "error": error}

    report = {"scenario_hash": ctx.scen_hash, "seed": ctx.seed, "scenario": doc,
              "results": results}
    if not canonical:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _atomic_write(os.path.join(ctx.outdir, "report.json"),
                  json.dumps(report, sort_keys=True, indent=2) + "\n")
    if failed:
        raise LevyLilError(f"{len(failed)} of {len(results)} analyses failed, see "
                           f"report.json: " + "; ".join(failed))
    return report


def write_schema(path):
    """Ship the published scenario schema as a JSON document."""
    _atomic_write(path, json.dumps(SCENARIO_SCHEMA, sort_keys=True, indent=2) + "\n")
