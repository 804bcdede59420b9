import errno
import hashlib
import json
import math
import os
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import levylil as ll
from levylil.cli import main as cli_main
from levylil import scenario, simulate
from levylil.scenario import run_scenario


def minimal_scenario(outdir):
    return {
        "seed": 42,
        "measure": {"variant": "power_law", "alpha": {"kind": "constant", "value": 1.5}},
        "output_dir": str(outdir),
        "analyses": [
            {"name": "pu_grid", "x_values": [0.0], "xi_values": [0.5, 1.0, 2.0, 4.0]},
        ],
    }


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_minimal_scenario_pu_csv(tmp_path):
    out = tmp_path / "out"
    report = run_scenario(minimal_scenario(out))
    tag = next(iter(report["results"]))
    csv_file = out / f"{tag}.csv"
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("# scenario_hash=")
    assert lines[1].startswith("# seed=42")
    assert lines[2] == "x,xi,pu"
    for row in lines[3:]:
        x, xi, pu = map(float, row.split(","))
        assert pu == pytest.approx(xi ** 1.5, rel=1e-12)


def test_misspelled_key_rejected_with_name(tmp_path, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc["measure"] = {"variant": "power_law", "alhpa": {"kind": "constant", "value": 1.5}}
    path = write_scenario(tmp_path, doc)
    code = cli_main(["report", "--scenario", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "alhpa" in err


def test_unknown_top_level_key_rejected(tmp_path):
    doc = minimal_scenario(tmp_path / "out")
    doc["sede"] = 1
    with pytest.raises(ll.SchemaError, match="sede"):
        run_scenario(doc)


def test_seed_is_mandatory(tmp_path):
    doc = minimal_scenario(tmp_path / "out")
    del doc["seed"]
    with pytest.raises(ll.SchemaError, match="seed"):
        run_scenario(doc)


def test_unknown_analysis_rejected(tmp_path):
    doc = minimal_scenario(tmp_path / "out")
    doc["analyses"] = [{"name": "frobnicate"}]
    with pytest.raises(ll.SchemaError,
                       match=re.escape("at $.analyses[0].name: unknown value 'frobnicate'")):
        run_scenario(doc)


@pytest.mark.parametrize("change, message", [
    ({"measure": {"variant": "stable", "alpha": 1.5}}, "$.measure.variant: unknown value 'stable'"),
    ({"process": {"kind": "brownian"}}, "$.process.kind: unknown value 'brownian'"),
], ids=["measure_variant", "process_kind"])
def test_unknown_variant_or_kind_is_named_with_its_value(tmp_path, change, message):
    doc = minimal_scenario(tmp_path / "out")
    doc.update(change)
    with pytest.raises(ll.SchemaError, match=re.escape(message)):
        run_scenario(doc)


def test_chung_window_reaching_inverse_e_exits_1(tmp_path, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc.update({"grid": {"t_max": 1.0, "steps": 64}, "paths": 16,
                "analyses": [{"name": "simulate"},
                             {"name": "chung_statistic", "t_lo": 0.4, "t_hi": 0.5,
                              "rate_exponent": 0.5}]})
    path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t_hi" in err
    assert "Traceback" not in err


def test_u_inverse_below_a_tabulated_range_exits_1(tmp_path, capsys):
    # u_inverse scans xi = 1/r up to 1e300, past the tabulated grid
    grid = np.geomspace(1e-3, 1e2, 60)
    doc = minimal_scenario(tmp_path / "out")
    doc.update({"measure": {"variant": "tabulated", "grid": grid.tolist(),
                            "density": (0.7 * grid ** -2.2).tolist()},
                "analyses": [{"name": "norming_table", "kind": "u_inverse",
                              "arguments": [1e-4, 1e-3]}]})
    path = write_scenario(tmp_path, doc)
    assert cli_main(["norming", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line] == [
        "error: 1 of 1 analyses failed, see report.json: 00_norming_table: "
        "RhoOutOfRangeError: rho below the resolvable range of u"]


def test_upper_v_past_an_atomic_measure_saturation_exits_1(tmp_path, capsys):
    # p^U of atoms +-1 is flat at nu(R) = 2 past xi = 1: v has no inverse to take
    doc = minimal_scenario(tmp_path / "out")
    doc.update({"measure": {"variant": "atomic", "atoms": [[1.0, 1.0], [-1.0, 1.0]]},
                "analyses": [{"name": "norming_table", "kind": "upper_v",
                              "arguments": [1e-4, 1e-3]}]})
    assert cli_main(["norming", "--scenario", str(write_scenario(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "RhoOutOfRangeError: rho below the resolvable range of u" in err


def test_power_law_truncation_radius_is_not_a_field(tmp_path, capsys):
    doc = minimal_scenario(tmp_path / "out")
    doc["measure"]["truncation_radius"] = 1e8
    assert cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "truncation_radius" in err and "$.measure" in err, err


def test_failed_analysis_is_recorded_and_the_rest_still_run(tmp_path, capsys):
    # multi_interval_decay needs 3 u(0, 1) = 1.9 > t_max = 1 and fails; the
    # analysis after it still runs, report.json records the failure, exit 1
    doc = json.loads((Path(__file__).resolve().parent.parent / "docs"
                      / "example_scenario.json").read_text())
    out = tmp_path / "out"
    doc.update(paths=500, output_dir=str(out), analyses=[
        {"name": "pu_grid", "x_values": [0.0], "xi_values": [1.0, 2.0]},
        {"name": "simulate"},
        {"name": "multi_interval_decay", "R": 1.0, "m_max": 3},
        {"name": "sup_probability", "t": 0.5, "R": 1.0}])
    path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path), "--canonical-output"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: 1 of 4 analyses failed, see report.json: 02_multi_interval_decay: "
                   "ValueError: grid does not cover m_max * u(x, R)\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "00_pu_grid.csv", "01_simulate.csv", "03_sup_probability.csv", "report.json"]
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["02_multi_interval_decay"] == {
        "status": "failed", "analysis": "multi_interval_decay",
        "arguments": {"R": 1.0, "m_max": 3},
        "error": "ValueError: grid does not cover m_max * u(x, R)"}
    # the other entries are those of a run without the failing analysis
    del doc["analyses"][2]
    doc["output_dir"] = str(tmp_path / "ok")
    ok = run_scenario(doc, canonical=True)["results"]
    assert [results[t] for t in ("00_pu_grid", "01_simulate", "03_sup_probability")] == [
        ok[t] for t in ("00_pu_grid", "01_simulate", "02_sup_probability")]
    # a verify analysis whose ensemble failed to build fails too, and is not
    # run on an ensemble built some other way
    doc.update(output_dir=str(tmp_path / "rec"), analyses=[
        {"name": "simulate", "record_times": [0.123456789, 1.0]},
        {"name": "sup_probability", "t": 0.5, "R": 1.0}])
    with pytest.raises(ll.LevyLilError, match="2 of 2 analyses failed"):
        run_scenario(doc)
    results = json.loads((tmp_path / "rec" / "report.json").read_text())["results"]
    assert results["01_sup_probability"]["error"] == (
        "LevyLilError: ensemble 'main' was not built: its simulate analysis failed")
    # a schema error inside an analysis still aborts the run with exit 2
    doc.update(output_dir=str(tmp_path / "schema"), analyses=[
        {"name": "multi_interval_decay", "R": 1.0, "m_max": 3}, {"name": "simulate"}])
    del doc["grid"]
    assert cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc, "s.json"))]) == 2
    assert "simulate needs a 'grid'" in capsys.readouterr().err
    assert not (tmp_path / "schema" / "report.json").exists()


def test_overflow_in_symbol_analyses_is_recorded(tmp_path, capsys):
    # |xi|^1.5 at xi = 1e300 and r^-1.5 at r = 1e-300 overflow a double
    doc = minimal_scenario(tmp_path / "out")
    doc["analyses"] = [
        {"name": "pu_grid", "x_values": [0.0], "xi_values": [1e300]},
        {"name": "exponent_grid", "x_values": [0.0], "xi_values": [1e300]},
        {"name": "tail_mass_grid", "r_values": [1e-300]}]
    assert cli_main(["symbol", "--scenario", str(write_scenario(tmp_path, doc))]) == 1
    assert "3 of 3 analyses failed" in capsys.readouterr().err
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert [(r["status"], r["analysis"], r["error"].split(":")[0])
            for r in results.values()] == [
        ("failed", name, "OverflowError")
        for name in ("pu_grid", "exponent_grid", "tail_mass_grid")]


_STABLE_GRID = {"process": {"kind": "stable", "alpha": 1.5},
                "grid": {"t_max": 1.0, "steps": 16}, "paths": 200}


@pytest.mark.parametrize("law, failing, later", [
    ({}, {"name": "symbol_liminf_test", "g_exponent": 1.5, "w_exponent": 0.5,
          "w_log_exponent": -1.0, "t_max": 1.0, "levels": 8},
     {"name": "symbol_liminf_test", "g_exponent": 1.5, "w_exponent": 0.5,
      "t_max": 0.25, "levels": 8}),
    (_STABLE_GRID,
     {"name": "etemadi", "C": 1.0, "v_exponent": 0.5, "v_log_exponent": -1.0, "t_list": [1.0]},
     {"name": "sup_probability", "t": 0.5, "R": 1.0}),
], ids=["symbol_liminf_test", "etemadi"])
def test_arithmetic_error_of_an_analysis_is_recorded(tmp_path, capsys, law, failing, later):
    # |log t|^-1 at t = 1 is 0.0 ** -1.0: a ZeroDivisionError, a numeric
    # failure; the analysis after it still runs
    out = tmp_path / "out"
    doc = {"seed": 5, **law, "output_dir": str(out),
           "analyses": [*([{"name": "simulate"}] if law else []), failing, later]}
    assert cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    i = len(doc["analyses"]) - 2
    results = json.loads((out / "report.json").read_text())["results"]
    entry = results[f"{i:02d}_{failing['name']}"]
    assert entry["status"] == "failed" and entry["analysis"] == failing["name"]
    assert entry["error"].startswith("ZeroDivisionError: ")
    assert (out / f"{i + 1:02d}_{later['name']}.csv").exists()
    assert "status" not in results[f"{i + 1:02d}_{later['name']}"]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["--out", str(tmp / "a_file" / "x")],   # NotADirectoryError
    lambda tmp: ["--out", str(tmp / "a_file")],          # FileExistsError
    lambda tmp: ["--scenario", str(tmp)],                 # IsADirectoryError
], ids=["out_under_a_file", "out_a_file", "scenario_a_directory"])
def test_path_it_cannot_use_exits_2(tmp_path, capsys, argv):
    (tmp_path / "a_file").write_text("")
    path = write_scenario(tmp_path, minimal_scenario(tmp_path / "out"))
    assert cli_main(["report", "--scenario", str(path), *argv(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_scenario_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'\xff\xfe{"seed": 1}')
    assert cli_main(["report", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: scenario is not valid JSON: ")


def test_power_log_options_reach_the_norming_functions(tmp_path):
    # v(t) = t^a |log t|^b and w(t) = t^a |log t|^b (log|log t|)^c, with
    # t_max < 1/e so that log|log t| > 0; numbers only, to a relative 1e-12
    a, b, c = 0.5, -1.0, 0.5

    def w(t):
        return t ** a * abs(math.log(t)) ** b * math.log(abs(math.log(t))) ** c

    def v(t):
        return t ** a * abs(math.log(t)) ** 1.0

    doc = {"seed": 9, "process": {"kind": "stable", "alpha": 1.5},
           "grid": {"t_max": 0.25, "steps": 16}, "paths": 200,
           "output_dir": str(tmp_path / "out"),
           "analyses": [
               {"name": "symbol_liminf_test", "g_exponent": 1.5, "g_scale": 2.0,
                "w_exponent": a, "w_log_exponent": b, "w_loglog_exponent": c,
                "t_max": 0.05, "levels": 8},
               {"name": "lower_tail_test", "v_exponent": a, "v_log_exponent": 1.0, "C": 1.0,
                "t_max": 0.25, "levels": 8},
               {"name": "simulate"},
               {"name": "etemadi", "C": 1.0, "v_exponent": a, "v_log_exponent": 1.0,
                "t_list": [0.03, 0.1, 0.25]}]}
    results = run_scenario(doc, canonical=True)["results"]
    liminf = results["00_symbol_liminf_test"]
    ts = [0.05 * 2.0 ** -j for j in range(9)]
    assert liminf["probe_times"] == ts
    assert liminf["blocks"] == pytest.approx([t * 2.0 * (1.0 / w(t)) ** 1.5 for t in ts],
                                             rel=1e-12)
    measure = ll.SymmetricStableProcess(alpha=1.5).levy_triplet.measure
    direct = ll.classify_integral_at_zero(lambda t: ll.tail_mass(measure, 0.0, 2.0 * v(t)),
                                          0.25, 8)
    assert results["01_lower_tail_test"]["blocks"] == pytest.approx(
        list(direct.block_values), rel=1e-12)
    rows = results["03_etemadi"]["rows"]
    assert [r["t"] for r in rows] == [0.03125, 0.09375, 0.25]   # snapped to k / 64
    assert [r["v"] for r in rows] == pytest.approx([v(r["t"]) for r in rows], rel=1e-12)


def test_verify_rows_report_the_grid_time_measured(tmp_path):
    # on 64 steps over [0, 1], t = 0.3 snaps to 19/64 and t = 5 to t_max
    doc = {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
           "grid": {"t_max": 1.0, "steps": 64}, "paths": 200,
           "output_dir": str(tmp_path / "out"),
           "analyses": [{"name": "sup_probability", "t": 0.3, "R": 0.5},
                        {"name": "sup_probability", "t": 5.0, "R": 0.5},
                        {"name": "charfn_bound", "xi_list": [1.0], "t_list": [0.3]}]}
    report = run_scenario(doc, canonical=True)
    rows = {tag: (tmp_path / "out" / f"{tag}.csv").read_text().splitlines()[3:]
            for tag in report["results"]}
    assert [float(r.split(",")[0]) for r in rows["00_sup_probability"]
            + rows["01_sup_probability"] + rows["02_charfn_bound"]] == [0.296875, 1.0, 0.296875]
    bound = float(rows["02_charfn_bound"][0].split(",")[3])
    assert bound == math.exp(-report["results"]["02_charfn_bound"]["delta"] * 0.296875)


# SHA-256 of every file that `levylil report --canonical-output` writes for
# docs/example_scenario.json into its own output_dir
EXAMPLE_SHA256 = {
    "00_pu_grid.csv": "9eb53f4d24646d70fdffe1caf9ae18dc5f438b3a66a68dfe888304618c4a6cd2",
    "01_exponent_grid.csv": "8c011e8665fdebc4a32d0dcbbaea71b46310d0763a7a3ab2b19e832b2fadcec2",
    "02_sector.csv": "dcd55834b9fbe92d7e1c87745d722e3cfd892e634b8f1c3f39973c416536325a",
    "03_norming_table.csv": "1c7ba0b698b26bbc4d83cba35777a6aab8163f2ff64577052ae427e207bf4528",
    "04_kappa.csv": "e33f82d973cbe7148ef206005ec560622b9ca847e2520b2c893f0610a890633d",
    "05_upper_function_test.csv": "fca486f46dcd0669e8374a7d57c20662fc4f613fb58bb21e80d4ad454dc00197",
    "06_lower_tail_test.csv": "2f66ed0e68c707325f4dc2efa931a75cc0a993deeb15c0537e1e23ef5c6a4c6b",
    "07_symbol_liminf_test.csv": "7854308c28adb1c6ad238510d232429c50f93815df2943de46826bd937cfd402",
    "08_simulate.csv": "8df9ff2f19c96adf6325515b7bc030bc916d72f692d314eb18a9258cdc2b3bab",
    "08_simulate_paths.jsonl": "1a81d5bae6a97c60ca103dff093dcd3babbc0bd0aef64b29ec82d5b30ff7351c",
    "09_sup_probability.csv": "daffc2245240bd8af4e4a01b2f5f48bb99c41c642703a05ba0d9fde4498d4c3c",
    "10_maximal_inequality.csv": "64903eb6d8bbd29a3d86cf669a911e35ed6977ed25a38fb0444949bb2939ce60",
    "11_spitzer.csv": "5ae45d4a5752d4b1218b8c8e6b587efa7efcbef28ea5013fbab483dd7b30233c",
    "12_etemadi.csv": "49e131eaa0cec2cc053cd248f320454984aa3ededbf08dd63b56e1379fa666c4",
    "13_charfn_bound.csv": "d1af255e3ecd49ee69bb505fc2a2c0d2c9f7d3494790fcb7e6ce13a412013688",
    "14_chung_statistic.csv": "a8a5458e683ee22240af85c8ed19b641513f1eaf9e88c83561cc1a3b8a5900b0",
    "report.json": "60be37ad9583305a721df927f0571c1fdd951d086c12d27fff7f774a350ece0d",
}


def test_example_canonical_output_is_pinned(tmp_path, monkeypatch):
    # output_dir stays "out", so the scenario hash in every file is that of the example
    monkeypatch.chdir(tmp_path)
    run_scenario(Path(__file__).resolve().parent.parent / "docs" / "example_scenario.json",
                 canonical=True)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert digests == EXAMPLE_SHA256


def test_canonical_output_byte_identical(tmp_path):
    doc = {
        "seed": 7,
        "x": 0.0,
        "process": {"kind": "stable", "alpha": 1.5},
        "grid": {"t_max": 1.0, "steps": 128},
        "paths": 200,
        "analyses": [
            {"name": "pu_grid", "x_values": [0.0, 0.5], "xi_values": [1.0, 2.0]},
            {"name": "norming_table", "kind": "u", "arguments": [0.01, 0.1, 1.0]},
            {"name": "simulate"},
            {"name": "spitzer", "t_list": [0.5, 1.0]},
        ],
    }
    out = tmp_path / "a"
    run_scenario(doc, out=str(out), canonical=True)
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    run_scenario(doc, out=str(out), canonical=True)
    second = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert first == second


def test_noncanonical_has_timestamp(tmp_path):
    report = run_scenario(minimal_scenario(tmp_path / "out"))
    assert "generated_at" in report
    report2 = run_scenario(minimal_scenario(tmp_path / "out2"), canonical=True)
    assert "generated_at" not in report2


def test_seed_override_changes_hash(tmp_path):
    doc = minimal_scenario(tmp_path / "out")
    r1 = run_scenario(doc, canonical=True)
    r2 = run_scenario(doc, seed=43, out=str(tmp_path / "out2"), canonical=True)
    assert r1["scenario_hash"] != r2["scenario_hash"]
    assert r2["seed"] == 43


def test_full_pipeline_stages(tmp_path):
    doc = {
        "seed": 11,
        "x": 0.0,
        "measure": {"variant": "power_law", "alpha": {"kind": "constant", "value": 1.5}},
        "grid": {"t_max": 1.0, "steps": 256},
        "paths": 500,
        "output_dir": str(tmp_path / "out"),
        "analyses": [
            {"name": "pu_grid", "x_values": [0.0], "xi_values": [1.0, 2.0]},
            {"name": "exponent_grid", "x_values": [0.0], "xi_values": [1.0]},
            {"name": "tail_mass_grid", "r_values": [0.5, 1.0, 2.0]},
            {"name": "sector", "x_window": [-1.0, 1.0], "xi_grid": [0.5, 1.0, 2.0]},
            {"name": "norming_table", "kind": "chung_rate",
             "arguments": [1e-4, 1e-3, 1e-2]},
            {"name": "kappa", "R_grid": [0.5, 0.25, 0.125]},
            {"name": "upper_function_test", "epsilon": 0.5, "t_max": math.exp(-2),
             "levels": 12},
            {"name": "lower_tail_test", "v_exponent": 0.6667, "C": 1.0,
             "t_max": math.exp(-2), "levels": 12},
            {"name": "symbol_liminf_test", "g_exponent": 1.5, "w_exponent": 0.6667,
             "t_max": math.exp(-2), "levels": 12},
            {"name": "simulate", "save": "jsonl"},
            {"name": "sup_probability", "t": 0.5, "R": 1.0},
            {"name": "maximal_inequality", "t_list": [0.25, 0.5], "R_list": [0.5, 1.0]},
            {"name": "spitzer", "t_list": [0.25, 1.0]},
            {"name": "etemadi", "C": 1.0, "v_exponent": 0.6667, "t_list": [0.25, 0.5]},
            {"name": "charfn_bound", "xi_list": [0.5, 1.0], "t_list": [0.25, 0.5]},
            {"name": "chung_statistic", "t_lo": 0.03125, "t_hi": 0.25},
            {"name": "multi_interval_decay", "R": 0.6, "m_max": 2},
        ],
    }
    report = run_scenario(doc, canonical=True)
    results = report["results"]
    assert len(results) == len(doc["analyses"])
    # spot checks across stages
    get = lambda name: next(v for k, v in results.items() if k.endswith(name))
    assert get("pu_grid")["rows"] == 2
    assert get("sector")["value"] == 0.0
    assert get("upper_function_test")["verdict"] == "convergent"
    assert get("lower_tail_test")["verdict"] == "divergent"
    assert get("symbol_liminf_test")["verdict"] == "positive_finite"
    assert get("spitzer")["rows"][0]["p_hat"] == pytest.approx(0.5, abs=0.1)
    assert get("charfn_bound")["pass"]
    # outputs on disk: report + one csv per analysis + saved paths
    files = os.listdir(tmp_path / "out")
    assert "report.json" in files
    assert sum(f.endswith(".csv") for f in files) == len(doc["analyses"])
    assert any(f.endswith("_paths.jsonl") for f in files)
    # every csv embeds hash and seed
    for f in files:
        if f.endswith(".csv"):
            head = (tmp_path / "out" / f).read_text().splitlines()[:2]
            assert head[0].startswith("# scenario_hash=")
            assert head[1] == "# seed=11"
    # the block table of a verdict and the rows of a norming table
    for name, header, n_rows in (("upper_function_test", "index,block", 12),
                                 ("norming_table", "argument,value", 3)):
        (f,) = [f for f in files if f.endswith(f"_{name}.csv")]
        lines = (tmp_path / "out" / f).read_text().splitlines()
        assert lines[2] == header
        assert len(lines) == 3 + n_rows


def test_stage_filtering(tmp_path):
    doc = minimal_scenario(tmp_path / "out")
    doc["analyses"].append({"name": "kappa", "R_grid": [0.5]})
    report = run_scenario(doc, stages=("symbol",), canonical=True)
    assert len(report["results"]) == 1
    assert next(iter(report["results"])).endswith("pu_grid")


def test_cli_report_and_exit_codes(tmp_path, capsys):
    doc = minimal_scenario(tmp_path / "out")
    path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path), "--canonical-output"]) == 0
    assert (tmp_path / "out" / "report.json").exists()
    # numeric failure -> exit 1: chung_rate at t >= e^{-1} is a domain error
    doc2 = minimal_scenario(tmp_path / "out2")
    doc2["analyses"] = [{"name": "norming_table", "kind": "chung_rate",
                         "arguments": [0.9]}]
    path2 = write_scenario(tmp_path, doc2, "bad.json")
    assert cli_main(["norming", "--scenario", str(path2)]) == 1
    # missing file -> usage error
    assert cli_main(["report", "--scenario", str(tmp_path / "nope.json")]) == 2
    # malformed JSON -> schema error
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["report", "--scenario", str(broken)]) == 2


def test_label_that_is_not_a_file_name_rejected_up_front(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    doc = minimal_scenario(out)
    doc["analyses"] = [{"name": "kappa", "R_grid": [0.5]},
                       {"name": "kappa", "R_grid": [0.5], "label": "a/b"}]
    path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path)]) == 2
    assert "label" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("change, argv, message", [
    ({"measure": {"variant": "power_law", "alpha": 2.5}}, [], "alpha profile range"),
    ({"measure": {"variant": "tabulated", "grid": [1.0], "density": [1.0]}}, [],
     "at least two points"),
    ({"grid": {"t_max": 1.0, "steps": 64, "layout": "geometric"}}, [], "needs levels"),
    (None, ["--steps", "1000"], "power of two"),
], ids=["alpha_above_2", "one_point_grid", "geometric_without_levels", "example_steps_1000"])
def test_value_a_constructor_rejects_is_a_schema_error(tmp_path, capsys, change, argv, message):
    out = tmp_path / "out"
    if change is None:
        path = Path(__file__).resolve().parent.parent / "docs" / "example_scenario.json"
    else:
        doc = minimal_scenario(out)
        doc.update(change)
        path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path), "--out", str(out), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, named", [
    ({"measure": {"variant": "power_law", "alpha": 1.5},
      "process": {"kind": "stable", "alpha": 0.8}, "grid": {"t_max": 1.0, "steps": 64},
      "analyses": [{"name": "simulate"},
                   {"name": "chung_statistic", "t_lo": 0.03, "t_hi": 0.25}]},
     ["'measure'", "'process'"]),
    ({"process": {"kind": "compound_poisson", "atoms": [[1.0, 2.0]]}, "drift": 0.5,
      "grid": {"t_max": 1.0, "steps": 64}, "analyses": [{"name": "simulate"}]},
     ["'drift'", "'process'"]),
    ({"measure": {"variant": "power_law", "alpha": 1.5},
      "analyses": [{"name": "pu_grid", "x_values": [0.0], "xi_values": [1.0]},
                   {"name": "simulate"}]}, ["simulate needs a 'grid'"]),
    ({"measure": {"variant": "power_law", "alpha": 1.5},
      "analyses": [{"name": "pu_grid", "x_values": [0.0], "xi_values": [1.0]},
                   {"name": "spitzer", "t_list": [0.5]}]},
     ["verification analyses need a 'grid'"]),
    ({"process": {"kind": "compound_poisson", "atoms": [[1.0, 2.0]]},
      "grid": {"t_max": 1.0, "steps": 64},
      "analyses": [{"name": "exponent_grid", "x_values": [0.0], "xi_values": [1.0]},
                   {"name": "spitzer", "t_list": [0.5]},
                   {"name": "charfn_bound", "xi_list": [1.0], "t_list": [0.5]}]},
     ["charfn_bound is available for stable processes"]),
    ({"analyses": [{"name": "symbol_liminf_test", "g_exponent": 1.5, "w_exponent": 0.5,
                    "t_max": 0.1, "levels": 8},
                   {"name": "kappa", "R_grid": [0.5]}]},
     ["need a law", "kappa"]),
], ids=["measure_and_process", "process_and_drift", "simulate_without_grid",
        "verify_without_grid", "charfn_bound_on_compound_poisson", "kappa_without_law"])
def test_usage_error_the_document_decides_writes_nothing(tmp_path, capsys, change, named):
    # one law per scenario, a law for every analysis that reads one, a grid
    # for every simulation and a stable sampler for charfn_bound: all are
    # known before the first analysis, so no output directory is made
    out = tmp_path / "out"
    doc = {"seed": 3, "paths": 100, "output_dir": str(out), **change}
    assert cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert not out.exists()


_MINIMAL_SPECS = {
    "pu_grid": {"x_values": [0.0], "xi_values": [1.0]},
    "exponent_grid": {"x_values": [0.0], "xi_values": [1.0]},
    "tail_mass_grid": {"r_values": [0.5]},
    "sector": {"x_window": [-0.5, 0.5], "xi_grid": [1.0, 2.0]},
    "norming_table": {"kind": "u", "arguments": [0.5]},
    "kappa": {"R_grid": [0.5, 0.25]},
    "upper_function_test": {"epsilon": 0.5, "t_max": 0.1, "levels": 8},
    "lower_tail_test": {"v_exponent": 0.5, "C": 1.0, "t_max": 0.1, "levels": 8},
    "symbol_liminf_test": {"g_exponent": 1.5, "w_exponent": 0.5, "t_max": 0.1, "levels": 8},
    "simulate": {},
    "sup_probability": {"t": 0.5, "R": 1.0},
    "maximal_inequality": {"t_list": [0.5], "R_list": [1.0]},
    "multi_interval_decay": {"R": 1.0, "m_max": 2},
    "spitzer": {"t_list": [0.5]},
    "etemadi": {"C": 1.0, "v_exponent": 0.5, "t_list": [0.5]},
    "charfn_bound": {"xi_list": [1.0], "t_list": [0.5]},
    "chung_statistic": {"t_lo": 0.05, "t_hi": 0.2},
}


@pytest.mark.parametrize("law", [{}, {"process": {"kind": "compound_poisson",
                                                  "atoms": [[0.5, 1.0], [-0.5, 1.0]]}}],
                         ids=["no_law", "compound_poisson"])
@pytest.mark.parametrize("name", list(scenario._ANALYSES))
def test_every_analysis_exits_2_up_front_or_writes_its_report(tmp_path, capsys, name, law):
    # a usage error leaves no output; any other run ends with report.json
    out = tmp_path / "out"
    doc = {"seed": 3, "paths": 200, "grid": {"t_max": 1.0, "steps": 64},
           "output_dir": str(out), **law, "analyses": [{"name": name, **_MINIMAL_SPECS[name]}]}
    code = cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc))])
    err = capsys.readouterr().err
    if code == 2:
        assert not out.exists(), err
    else:
        assert code in (0, 1) and (out / "report.json").exists(), err
    if not law:   # every analysis but symbol_liminf_test reads the law
        assert (code == 2) == (name != "symbol_liminf_test"), err


def test_process_only_compound_poisson_exponent_is_its_paths_law(tmp_path):
    # atoms [[1, 2]]: the triplet drift -m1 = -2 compensates the small jumps,
    # so Im p(0, xi) = -2 xi + 2 (xi - sin xi) = -2 sin xi
    doc = {"seed": 5, "process": {"kind": "compound_poisson", "atoms": [[1.0, 2.0]]},
           "grid": {"t_max": 1.0, "steps": 16}, "paths": 20_000,
           "output_dir": str(tmp_path / "out"),
           "analyses": [{"name": "exponent_grid", "x_values": [0.0], "xi_values": [0.5, 1.0]},
                        {"name": "simulate", "save": "jsonl"}]}
    run_scenario(doc, canonical=True)
    lines = (tmp_path / "out" / "00_exponent_grid.csv").read_text().splitlines()[3:]
    ens = ll.load_ensemble_jsonl(tmp_path / "out" / "01_simulate_paths.jsonl")
    for line in lines:
        _, xi, re_p, im_p = map(float, line.split(","))
        assert abs(im_p + 2.0 * math.sin(xi)) <= 1e-12
        lam, want = ll.empirical_charfn(ens, xi, 1.0), np.exp(-complex(re_p, im_p))
        assert abs(lam.real - want.real) <= 4.0 / math.sqrt(ens.n_paths)
        assert abs(lam.imag - want.imag) <= 4.0 / math.sqrt(ens.n_paths)


def test_state_dependent_measure_alone_fails_its_simulation(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {"seed": 3, "measure": {"variant": "power_law", "alpha": {
               "kind": "sinusoidal", "center": 1.5, "amplitude": 0.3}},
           "grid": {"t_max": 1.0, "steps": 64}, "paths": 100, "output_dir": str(out),
           "analyses": [{"name": "simulate"}]}
    assert cli_main(["report", "--scenario", str(write_scenario(tmp_path, doc))]) == 1
    (result,) = json.loads((out / "report.json").read_text())["results"].values()
    assert result["status"] == "failed"
    assert "state-dependent power_law measure" in result["error"]
    assert "as a stable_like 'process'" in result["error"]


def _spitzer_scenario(outdir):
    return {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
            "grid": {"t_max": 1.0, "steps": 8}, "paths": 50, "output_dir": str(outdir),
            "analyses": [{"name": "simulate"}, {"name": "spitzer", "t_list": [0.5]}]}


@pytest.mark.parametrize("change, field", [
    ({"grid": {"t_max": math.inf, "steps": 8}}, "$.grid.t_max"),
    ({"x": math.nan}, "$.x"),
    # inside a oneOf: the tanh_ramp branch is named, not the number branch
    ({"process": {"kind": "stable_like", "alpha": 1.5,
                  "scale": {"kind": "tanh_ramp", "center": 1.0, "amplitude": 0.2,
                            "rate": math.nan}}}, "$.process.scale.rate"),
], ids=["t_max_infinity", "x_nan", "profile_rate_nan"])
def test_non_finite_number_in_scenario_file_is_a_schema_error(tmp_path, capsys, change, field):
    # Python's json reads and writes NaN and Infinity; report.json must stay JSON
    out = tmp_path / "out"
    doc = _spitzer_scenario(out)
    doc.update(change)
    path = write_scenario(tmp_path, doc)
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert cli_main(["report", "--scenario", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_number_in_scenario_dict_is_a_schema_error(tmp_path):
    doc = _spitzer_scenario(tmp_path / "out")
    doc["x"] = -math.inf
    with pytest.raises(ll.SchemaError, match=re.escape("$.x")):
        run_scenario(doc)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, field", [
    ({"measure": {"variant": "power_law", "alpha": 1.5},
      "analyses": [{"name": "upper_function_test", "epsilon": 0.5, "t_max": 0.1,
                    "levels": 20.0}]}, "$.analyses[0].levels"),
    ({"grid": {"t_max": 1.0, "steps": 8.0}}, "$.grid.steps"),
    ({"seed": 5.0}, "$.seed"),
], ids=["levels", "steps", "seed"])
def test_integral_float_in_integer_field_is_a_schema_error(tmp_path, capsys, change, field):
    out = tmp_path / "out"
    doc = _spitzer_scenario(out)
    doc.update(change)
    path = write_scenario(tmp_path, doc)
    assert cli_main(["report", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert field in err and "is not of type 'integer'" in err
    assert not out.exists()


def test_saved_manifest_size_does_not_grow_with_paths(tmp_path):
    sizes = {}
    for n in (10, 200):
        doc = {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
               "grid": {"t_max": 1.0, "steps": 64}, "paths": n,
               "output_dir": str(tmp_path / f"out{n}"),
               "analyses": [{"name": "simulate", "save": "jsonl"}]}
        run_scenario(doc, canonical=True)
        sizes[n] = (tmp_path / f"out{n}" / "00_simulate_paths.jsonl").stat().st_size
    assert sizes[200] - sizes[10] == len("200") - len("10")


def _summary_oracle(pos, rs, x0):
    return np.mean(pos - x0, axis=0), np.median(rs, axis=0)


# (paths, stored times, x0, block points): odd and even path counts, one
# path, and column counts whose last tile would hold a single column (numpy
# sums one column pairwise, several row by row)
@pytest.mark.parametrize("n, cols, x0, block", [
    (1, 5, 0.0, None), (7, 28, 0.3, 64), (8, 28, -1.25, 64), (9, 19, 0.3, 18),
    (2000, 131, 0.0, None), (2001, 131, 0.7, None), (3, 1, 0.3, None)])
def test_per_time_summary_bits_match_full_array_oracle(n, cols, x0, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(scenario, "_BLOCK_POINTS", block)
    rng = np.random.default_rng(n * 1000 + cols)
    pos = x0 + np.cumsum(rng.standard_normal((n, cols)) * 10.0 ** rng.uniform(-3, 3, cols),
                         axis=1)
    rs = np.maximum.accumulate(np.abs(pos - x0), axis=1)
    for workers in (1, 2, 3):   # tiles on pool threads, at times more threads than tiles
        with ThreadPoolExecutor(workers) as pool:
            for r in (rs, np.round(rs, 1)):   # and with ties
                ens = SimpleNamespace(positions=pos, running_sup=r, x0=x0)
                mean, median = scenario._per_time_summary(ens, pool)
                want_mean, want_median = _summary_oracle(pos, r, x0)
                assert np.array_equal(mean, want_mean), workers
                assert np.array_equal(median, want_median), workers


@pytest.mark.parametrize("n", [6, 7])
def test_per_time_summary_nan_column_matches_oracle(n, monkeypatch):
    monkeypatch.setattr(scenario, "_BLOCK_POINTS", 2 * n)
    rng = np.random.default_rng(n)
    pos = rng.standard_normal((n, 9))
    rs = np.maximum.accumulate(np.abs(pos - 0.3), axis=1)
    pos[2, 4] = rs[n - 1, 4] = np.nan   # sorts above the middle, past a plain partition
    with ThreadPoolExecutor(2) as pool:
        mean, median = scenario._per_time_summary(SimpleNamespace(positions=pos, running_sup=rs,
                                                                  x0=0.3), pool)
    want_mean, want_median = _summary_oracle(pos, rs, 0.3)
    assert np.array_equal(mean, want_mean, equal_nan=True)
    assert np.array_equal(median, want_median, equal_nan=True)
    assert np.isnan(median[4]) and not np.isnan(np.delete(median, 4)).any()


def test_simulate_analysis_memory_stays_at_the_ensemble(tmp_path, monkeypatch):
    # one worker: the kernel's block buffers and the summary's tiles in flight
    # do not depend on the host
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    n, steps = 2000, 1024
    doc = {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
           "grid": {"t_max": 1.0, "steps": steps}, "paths": n,
           "output_dir": str(tmp_path / "out"), "analyses": [{"name": "simulate"}]}
    # a small run first, so that lazy imports and caches are not counted
    run_scenario(dict(doc, paths=2, output_dir=str(tmp_path / "warm")), canonical=True)
    tracemalloc.start()
    try:
        run_scenario(doc, canonical=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # positions and running_sup: one worker forks no child, so they are
    # private memory, which tracemalloc sees; any copy of them would show
    ensemble_bytes = 2 * n * steps * 8
    assert peak < ensemble_bytes + 8 * 2 ** 20, (peak, ensemble_bytes)


def test_failing_save_propagates_and_leaves_no_pool_thread(tmp_path, monkeypatch):
    # the save runs on a pool thread beside the summary; its OSError leaves
    # run_scenario as it was raised (an OSError is not a per-analysis
    # failure), once every pool thread has ended
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    raised = []

    def failing_save(*args, **kwargs):
        raised.append(OSError(errno.ENOSPC, "No space left on device"))
        raise raised[-1]

    monkeypatch.setattr(scenario, "save_ensemble_jsonl", failing_save)
    threads = set(threading.enumerate())
    doc = {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
           "grid": {"t_max": 1.0, "steps": 64}, "paths": 3000,
           "output_dir": str(tmp_path / "out"),
           "analyses": [{"name": "simulate", "save": "jsonl"},
                        {"name": "sup_probability", "t": 0.5, "R": 1.0}]}
    with pytest.raises(OSError) as info:
        run_scenario(doc, canonical=True)
    assert len(raised) == 1 and info.value is raised[0]
    assert not getattr(info.value, "__notes__", None)
    assert set(threading.enumerate()) == threads
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_verify_runs_simulation(tmp_path):
    doc = {
        "seed": 3,
        "process": {"kind": "stable", "alpha": 1.5},
        "grid": {"t_max": 1.0, "steps": 64},
        "paths": 300,
        "output_dir": str(tmp_path / "out"),
        "analyses": [
            {"name": "pu_grid", "x_values": [0.0], "xi_values": [1.0]},
            {"name": "spitzer", "t_list": [0.5]},
        ],
    }
    path = write_scenario(tmp_path, doc)
    assert cli_main(["verify", "--scenario", str(path), "--canonical-output"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    names = list(report["results"])
    assert len(names) == 1 and names[0].endswith("spitzer")


def test_verify_ensemble_is_its_simulate_spec_whichever_stages_run(tmp_path, capsys):
    # with the simulate stage or without it, sup_probability reads the ensemble
    # recorded at the simulate analysis's times (t = 0.25 snaps to 0.5)
    doc = {"seed": 3, "process": {"kind": "stable", "alpha": 1.5},
           "grid": {"t_max": 1.0, "steps": 64}, "paths": 400,
           "output_dir": str(tmp_path / "all"),
           "analyses": [{"name": "simulate", "record_times": [0.5, 1.0]},
                        {"name": "sup_probability", "t": 0.25, "R": 0.5}]}
    both = run_scenario(doc, canonical=True)["results"]["01_sup_probability"]
    doc["output_dir"] = str(tmp_path / "verify")
    alone = run_scenario(doc, stages=("verify",), canonical=True)["results"]
    assert alone == {"01_sup_probability": both}
    csv = (tmp_path / "verify" / "01_sup_probability.csv").read_text().splitlines()
    assert csv[-1].startswith("0.5,0.5,")
    # two simulate analyses for one id, or a verify analysis naming an id no
    # simulate analysis builds, exit 2 before any output, naming the id
    for analyses, message in (
            ([{"name": "simulate", "ensemble_id": "a"},
              {"name": "simulate", "record_times": [1.0], "ensemble_id": "a"}],
             "two simulate analyses build ensemble 'a'"),
            ([{"name": "simulate", "ensemble_id": "main"},
              {"name": "spitzer", "t_list": [0.5], "ensemble_id": "mian"}],
             "no simulate analysis builds ensemble 'mian'")):
        out = tmp_path / "bad"
        doc.update(output_dir=str(out), analyses=analyses)
        for stage in ("simulate", "verify"):
            path = write_scenario(tmp_path, doc)
            assert cli_main([stage, "--scenario", str(path)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_charfn_bound_accepts_integer_alpha(tmp_path):
    doc = {
        "seed": 3,
        "process": {"kind": "stable", "alpha": 1},
        "grid": {"t_max": 1.0, "steps": 64},
        "paths": 300,
        "output_dir": str(tmp_path / "out"),
        "analyses": [{"name": "charfn_bound", "xi_list": [0.5, 1.0], "t_list": [0.25, 0.5]}],
    }
    path = write_scenario(tmp_path, doc)
    assert cli_main(["verify", "--scenario", str(path), "--canonical-output"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    res = next(iter(report["results"].values()))
    assert res["check"] == "empirical_charfn_bound"


def test_cli_paths_and_steps_override(tmp_path):
    doc = {
        "seed": 3,
        "process": {"kind": "stable", "alpha": 1.5},
        "grid": {"t_max": 1.0, "steps": 64},
        "paths": 100,
        "output_dir": str(tmp_path / "out"),
        "analyses": [{"name": "simulate"}],
    }
    path = write_scenario(tmp_path, doc)
    assert cli_main(["simulate", "--scenario", str(path), "--paths", "50",
                     "--steps", "32", "--canonical-output"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    res = next(iter(report["results"].values()))
    assert res["paths"] == 50
    assert res["grid_points"] == 32


def test_schema_document_shipped(tmp_path):
    out = tmp_path / "scenario.schema.json"
    ll.write_schema(out)
    doc = json.loads(out.read_text())
    assert doc["required"] == ["seed", "analyses"]
    assert doc["additionalProperties"] is False
    shipped = Path(__file__).resolve().parent.parent / "docs" / "scenario.schema.json"
    assert out.read_bytes() == shipped.read_bytes()


def test_stable_like_scenario_end_to_end(tmp_path):
    doc = {
        "seed": 21,
        "x": 0.0,
        "process": {"kind": "stable_like",
                    "alpha": {"kind": "tanh_ramp", "center": 1.2, "amplitude": 0.2}},
        "grid": {"t_max": 0.25, "steps": 512},
        "paths": 2000,
        "output_dir": str(tmp_path / "out"),
        "analyses": [
            {"name": "simulate"},
            {"name": "spitzer", "t_list": [0.0625, 0.25]},
            {"name": "chung_statistic", "t_lo": 0.001953125, "t_hi": 0.03125},
        ],
    }
    report = run_scenario(doc, canonical=True)
    get = lambda name: next(v for k, v in report["results"].items() if k.endswith(name))
    # the process is symmetric: one-sided marginals near 1/2
    for row in get("spitzer")["rows"]:
        assert abs(row["p_hat"] - 0.5) <= 4.0 * row["standard_error"]
    stat = get("chung_statistic")
    assert stat["median"] > 0
    assert stat["q25"] < stat["median"] < stat["q75"]
