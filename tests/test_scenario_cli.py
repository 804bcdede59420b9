import json
import math
import os
import re
import tracemalloc

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


def test_canonical_output_byte_identical(tmp_path):
    doc = {
        "seed": 7,
        "x": 0.0,
        "measure": {"variant": "power_law",
                    "alpha": {"kind": "sinusoidal", "center": 1.5, "amplitude": 0.3}},
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
    for r in (rs, np.round(rs, 1)):   # and with ties
        mean, median = scenario._per_time_summary(SimpleNamespace(positions=pos,
                                                                  running_sup=r, x0=x0))
        want_mean, want_median = _summary_oracle(pos, r, x0)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(median, want_median)


@pytest.mark.parametrize("n", [6, 7])
def test_per_time_summary_nan_column_matches_oracle(n, monkeypatch):
    monkeypatch.setattr(scenario, "_BLOCK_POINTS", 2 * n)
    rng = np.random.default_rng(n)
    pos = rng.standard_normal((n, 9))
    rs = np.maximum.accumulate(np.abs(pos - 0.3), axis=1)
    pos[2, 4] = rs[n - 1, 4] = np.nan   # sorts above the middle, past a plain partition
    mean, median = scenario._per_time_summary(SimpleNamespace(positions=pos,
                                                              running_sup=rs, x0=0.3))
    want_mean, want_median = _summary_oracle(pos, rs, 0.3)
    assert np.array_equal(mean, want_mean, equal_nan=True)
    assert np.array_equal(median, want_median, equal_nan=True)
    assert np.isnan(median[4]) and not np.isnan(np.delete(median, 4)).any()


def test_simulate_analysis_memory_stays_at_the_ensemble(tmp_path, monkeypatch):
    # one kernel thread: the kernel's block buffers do not depend on the host
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
    ensemble_bytes = 2 * n * steps * 8   # positions and running_sup
    assert peak < ensemble_bytes + 8 * 2 ** 20, (peak, ensemble_bytes)


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
