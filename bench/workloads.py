"""The benchmark's three workloads.

Each workload has three parts:

- ``setup(seed)`` builds the inputs (specs, grids, master seeds) from the
  benchmark seed; ``setup_s`` measures interpreter start up to its return.
- ``run(inputs, outdir)`` makes the program calls the benchmark times; it
  returns their outputs and writes only under ``outdir``.
- ``check(inputs, outputs, outdir)`` returns a list of failed checks (empty
  when the outputs are correct); it is not timed and not traced.

Statistical checks written here use 5 standard errors.  At 4 SE a two-sided
test fails a correct program with probability 6.3e-5; a levy_mc pass makes 26
such tests, so 4 SE would spuriously fail about 1 pass in 600, while 5 SE
(5.7e-7 per test) keeps it near 1 in 67,000.  The program's own ``pass``
flags keep their tolerances; the inputs are chosen so those checks are not
tight (their expected margin is many standard errors).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import levylil as ll
from levylil import cli
from levylil.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_SCENARIO = ROOT / "docs" / "example_scenario.json"
Z = 5.0
F64 = 8


def derive_seed(seed: int, workload: str, role: str) -> int:
    """Master seed for one role of one workload: a fixed function of the seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def largest_array_bytes(n_paths, grid, n_recorded, chunk_size=2048):
    """Computed (not measured) bytes of the largest array one ensemble holds:
    a full-grid chunk of float64 or the stored positions, whichever is larger."""
    points = int(grid.times().size)
    return F64 * max(min(chunk_size, n_paths) * points, n_paths * n_recorded)


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    check: Callable


# --------------------------------------------------------------------------
# report_example: `levylil report` on the example scenario, then reload
# --------------------------------------------------------------------------

def setup_report(seed):
    doc = load_scenario(EXAMPLE_SCENARIO)      # parses and validates
    grid = ll.PathGrid.from_dict(doc["grid"])
    return {"scenario": str(EXAMPLE_SCENARIO), "n_analyses": len(doc["analyses"]),
            "cli_seed": derive_seed(seed, "report_example", "cli"),
            "largest_array_bytes": largest_array_bytes(doc["paths"], grid, grid.steps)}


def run_report(inputs, outdir):
    code = cli.main(["report", "--scenario", inputs["scenario"], "--canonical-output",
                     "--seed", str(inputs["cli_seed"]), "--out", outdir])
    saved = sorted(Path(outdir).glob("*_paths.jsonl"))
    ensemble = ll.load_ensemble_jsonl(saved[0]) if code == 0 and saved else None
    return {"exit_code": code, "ensemble": ensemble, "saved": [p.name for p in saved]}


def check_report(inputs, out, outdir):
    if out["exit_code"] != 0:
        return [f"levylil report exited with {out['exit_code']}"]
    with open(os.path.join(outdir, "report.json")) as fh:
        results = json.load(fh)["results"]
    failures = []
    if len(results) != inputs["n_analyses"]:
        failures.append(f"{len(results)} of {inputs['n_analyses']} analyses in report.json")
    failures += [f"{tag}: pass is false" for tag, res in results.items()
                 if res.get("pass") is False]
    sim = [res for tag, res in results.items() if tag.endswith("_simulate")]
    if len(out["saved"]) != 1 or len(sim) != 1:
        return failures + [f"expected one saved ensemble, found {out['saved']}"]
    ens, sim = out["ensemble"], sim[0]
    if ens.metadata()["spec_hash"] != sim["spec_hash"]:
        failures.append("reloaded ensemble does not reproduce spec_hash")
    if float(np.median(ens.running_sup[:, -1])) != sim["final_median_running_sup"]:
        failures.append("reloaded ensemble does not reproduce final_median_running_sup")
    return failures


# --------------------------------------------------------------------------
# levy_mc: stable and compound-Poisson ensembles, then the MC checks
# --------------------------------------------------------------------------

# psi(xi) = c |xi|^1.5 with p^U(xi) = |xi|^1.5, so u(0, R) = R^1.5 exactly.
STABLE_MEASURE = ll.PowerLawMeasure(alpha=1.5)
STABLE = ll.process_from_triplet(ll.LevyTriplet(measure=STABLE_MEASURE))
# Acceptance shape: 4096 steps on (0, 2^-6].  R = 2^-6 gives u = 2^-9, so the
# confinement times m u are grid points; by self-similarity this is the law
# acceptance criterion 6 checks at R = 1, t_max = 8.
STABLE_GRID = ll.PathGrid(t_max=2.0 ** -6, steps=4096)
DYADIC = [2.0 ** -k for k in range(12, 5, -1)]
DECAY_R, DECAY_M = 2.0 ** -6, 6
STABLE_RECORD = sorted(set(DYADIC) | {m * 2.0 ** -9 for m in range(1, DECAY_M + 1)})
N_STABLE = 8192
# symmetric jumps of +-1 at rate 2 each: X_t is a difference of two Poisson(2t)
CP_RATE = 2.0
CP = ll.CompoundPoissonProcess(atoms=((-1.0, CP_RATE), (1.0, CP_RATE)))
CP_GRID = ll.PathGrid(t_max=1.0, steps=4096)
CP_RECORD = [2.0 ** -k for k in range(6, -1, -1)]
N_CP = 4096
CHARFN_XI = [0.5, 1.0, 2.0, 4.0]
CP_PROBES = [(t, xi) for t in (2.0 ** -4, 2.0 ** -2, 1.0) for xi in (0.5, 2.0)]
N_REPLAY, REPLAY_CHUNK = 256, 97


def setup_levy_mc(seed):
    return {"stable_seed": derive_seed(seed, "levy_mc", "stable"),
            "cp_seed": derive_seed(seed, "levy_mc", "cp"),
            "family": ll.SymbolFamily.from_stable(STABLE.alpha, STABLE.scale),
            "largest_array_bytes": max(
                largest_array_bytes(N_STABLE, STABLE_GRID, len(STABLE_RECORD)),
                largest_array_bytes(N_CP, CP_GRID, len(CP_RECORD)))}


def run_levy_mc(inputs, outdir):
    stable = ll.simulate_ensemble(STABLE, 0.0, STABLE_GRID, inputs["stable_seed"], N_STABLE,
                                  record_times=STABLE_RECORD)
    cp = ll.simulate_ensemble(CP, 0.0, CP_GRID, inputs["cp_seed"], N_CP,
                              record_times=CP_RECORD)
    return {
        "stable": stable, "cp": cp,
        "etemadi": ll.etemadi_check(stable, lambda t: t ** (2.0 / 3.0), 1.0, DYADIC),
        "charfn": ll.empirical_charfn_bound(stable, inputs["family"], CHARFN_XI, DYADIC),
        "decay": ll.multi_interval_decay(stable, STABLE_MEASURE, 0.0, DECAY_R, DECAY_M),
        "spitzer": ll.spitzer_estimate(stable, 0.0, DYADIC),
        "cp_spitzer": ll.spitzer_estimate(cp, 0.0, CP_RECORD),
        "cp_charfn": [ll.empirical_charfn(cp, xi, t) for t, xi in CP_PROBES],
    }


def _replay_matches(ensemble, process, grid, seed, record):
    again = ll.simulate_ensemble(process, 0.0, grid, seed, N_REPLAY, record_times=record,
                                 chunk_size=REPLAY_CHUNK)
    return (np.array_equal(again.positions, ensemble.positions[:N_REPLAY])
            and np.array_equal(again.running_sup, ensemble.running_sup[:N_REPLAY]))


def check_levy_mc(inputs, out, outdir):
    from scipy.special import ive
    failures = [f"{name}: pass is false" for name in ("etemadi", "charfn", "decay")
                if not out[name]["pass"]]
    for row in out["spitzer"]:      # symmetric and continuous: P(X_t < 0) = 1/2
        if abs(row["p_hat"] - 0.5) > Z * math.sqrt(0.25 / row["sample_size"]):
            failures.append(f"stable P(X_t<0) = {row['p_hat']:.4f} at t={row['t']}")
    for row in out["cp_spitzer"]:   # P(X_t = 0) = e^{-4t} I_0(4t)
        p = 0.5 * (1.0 - ive(0, 2.0 * CP_RATE * row["t"]))
        if abs(row["p_hat"] - p) > Z * math.sqrt(p * (1.0 - p) / row["sample_size"]):
            failures.append(f"compound Poisson P(X_t<0) = {row['p_hat']:.4f} != {p:.4f}")
    n = out["cp"].n_paths
    for (t, xi), lam in zip(CP_PROBES, out["cp_charfn"]):
        exact = math.exp(-2.0 * CP_RATE * t * (1.0 - math.cos(xi)))
        # Var cos(xi X) = (1 + phi(2 xi))/2 - phi(xi)^2, Var sin(xi X) = (1 - phi(2 xi))/2
        phi2 = math.exp(-2.0 * CP_RATE * t * (1.0 - math.cos(2.0 * xi)))
        se_re = math.sqrt(max((1.0 + phi2) / 2.0 - exact ** 2, 0.0) / n)
        se_im = math.sqrt((1.0 - phi2) / 2.0 / n)
        if abs(lam.real - exact) > Z * se_re or abs(lam.imag) > Z * se_im:
            failures.append(f"compound Poisson charfn {lam:.4f} != {exact:.4f} at t={t}, xi={xi}")
    if not _replay_matches(out["stable"], STABLE, STABLE_GRID, inputs["stable_seed"],
                           STABLE_RECORD):
        failures.append(f"stable paths differ when re-simulated with chunk_size={REPLAY_CHUNK}")
    if not _replay_matches(out["cp"], CP, CP_GRID, inputs["cp_seed"], CP_RECORD):
        failures.append(f"compound Poisson paths differ with chunk_size={REPLAY_CHUNK}")
    return failures


# --------------------------------------------------------------------------
# feller_chung: state-dependent analytics and the stable-like step loop
# --------------------------------------------------------------------------

SIN_ALPHA = ll.SinusoidalProfile(center=1.5, amplitude=0.3)
SIN_MEASURE = ll.PowerLawMeasure(alpha=SIN_ALPHA)
STABLE_LIKE = ll.StableLikeProcess(alpha=SIN_ALPHA)
T0 = math.exp(-2.0)
CHUNG_T = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
RHO = np.geomspace(1e-8, 1e-3, 11).tolist()
KAPPA_R = [2.0 ** -k for k in range(3, 13)]
PU_X, PU_XI = 20, 40
FAMILY_WINDOW, FAMILY_XI = (-0.5, 0.5), [0.5, 1.0, 2.0, 4.0, 8.0]
SL_GRID = ll.PathGrid(t_max=1e-2, steps=4096)
N_SL = 2048
CHUNG_WINDOWS = ((1e-4, 1e-3), (1e-3, 1e-2))


def _chung_record(grid):
    """Grid points nearest to the dyadic probes of both Chung windows."""
    probes = ({grid.t_max * 2.0 ** -j for j in range(7)}
              | {1e-3 * 2.0 ** -j for j in range(4)})
    h = grid.t_max / grid.steps
    return sorted({round(t / h) * h for t in probes})


SL_RECORD = _chung_record(SL_GRID)
# acceptance criterion 2: index recovery for a ramp, exact u at a local minimum
TANH_MEASURE = ll.PowerLawMeasure(alpha=ll.TanhRampProfile(center=1.0, amplitude=0.25))
LOCAL_MIN_MEASURE = ll.PowerLawMeasure(
    alpha=ll.SinusoidalProfile(center=1.5, amplitude=0.3, phase=-math.pi / 2))


def setup_feller_chung(seed):
    rng = np.random.default_rng(derive_seed(seed, "feller_chung", "pu_grid"))
    return {"pu_x": np.sort(rng.uniform(-1.0, 1.0, PU_X)).tolist(),
            "pu_xi": np.sort(10.0 ** rng.uniform(-1.0, 2.0, PU_XI)).tolist(),
            "sl_seed": derive_seed(seed, "feller_chung", "stable_like"),
            "triplet": ll.LevyTriplet(measure=SIN_MEASURE),
            "largest_array_bytes": largest_array_bytes(N_SL, SL_GRID, len(SL_RECORD))}


def run_feller_chung(inputs, outdir):
    m = SIN_MEASURE
    out = {
        "chung_rate": ll.build_norming_function(m, 0.0, "chung_rate", CHUNG_T),
        "u_inverse": ll.build_norming_function(m, 0.0, "u_inverse", RHO),
        "kappa": ll.kappa_estimate(m, 0.0, KAPPA_R),
        "upper": ll.upper_function_test(m, 0.0, 0.5, 1, T0, 20),
        "upper_ell_one": ll.upper_function_test(m, 0.0, 0.5, 1, T0, 20, ell_one=True),
        "pu": [(ll.eval_pU(m, x, xi, method="closed"), ll.eval_pU(m, x, xi, method="quadrature"))
               for x in inputs["pu_x"] for xi in inputs["pu_xi"]],
        "family": ll.build_symbol_family(inputs["triplet"], FAMILY_WINDOW, FAMILY_XI),
    }
    ens = ll.simulate_ensemble(STABLE_LIKE, 0.0, SL_GRID, inputs["sl_seed"], N_SL,
                               record_times=SL_RECORD)
    out["chung"] = [ll.chung_statistic(ens, m, 0.0, lo, hi) for lo, hi in CHUNG_WINDOWS]
    return out


def check_feller_chung(inputs, out, outdir):
    failures = []
    worst = max(abs(q - c) / c for c, q in out["pu"])
    if not worst <= 1e-6:                                     # criterion 1
        failures.append(f"p^U quadrature vs closed form: rel err {worst:.2e} > 1e-6")
    ramp = max(abs(ll.u_inverse(TANH_MEASURE, 0.0, rho) / rho - 1.0) for rho in RHO)
    a_min = LOCAL_MIN_MEASURE.alpha_at(0.0)
    local = max(abs(ll.u_of_R(LOCAL_MIN_MEASURE, 0.0, R) - R ** a_min) / R ** a_min
                for R in np.geomspace(1e-3, 1.0, 10).tolist())
    if not (ramp <= 0.02 and local <= 1e-8):                  # criterion 2
        failures.append(f"norming recovery: ramp {ramp:.4f}, local minimum {local:.2e}")
    bound = ll.kappa_reference_bound(SIN_MEASURE, 0.0) * 1.05
    if not out["kappa"].kappa <= bound:                       # criterion 3
        failures.append(f"kappa {out['kappa'].kappa:.4f} above {bound:.4f}")
    verdicts = (out["upper"].verdict, out["upper_ell_one"].verdict)
    if verdicts != ("convergent", "divergent"):
        failures.append(f"upper_function_test verdicts {verdicts}")
    for nf in (out["chung_rate"], out["u_inverse"]):
        _, values = nf.table()
        if not (np.all(np.isfinite(values)) and np.all(np.diff(values) > 0)):
            failures.append(f"{nf.kind} table is not finite and increasing")
    family = out["family"]
    try:
        family.validate_on([-0.5, 0.0, 0.5], [1.0, 2.0, 8.0])
    except AssertionError as exc:
        failures.append(f"symbol family: {exc}")
    if not (family.sector_value is not None and family.sector_value < 1.0):
        failures.append(f"sector estimate {family.sector_value} not below 1")
    a, b = (c.median for c in out["chung"])
    if not (a > 0 and b > 0 and max(a, b) / min(a, b) <= 2.0):
        failures.append(f"Chung medians {a:.4f}, {b:.4f} differ by more than 2x")
    return failures


WORKLOADS = {
    "report_example": Workload(setup_report, run_report, check_report),
    "levy_mc": Workload(setup_levy_mc, run_levy_mc, check_levy_mc),
    "feller_chung": Workload(setup_feller_chung, run_feller_chung, check_feller_chung),
}
