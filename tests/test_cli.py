"""End-to-end checks of the command line driver."""

import ast
import csv
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adiaspec
from adiaspec import actions as actions_mod
from adiaspec import _ode, analyze_window, cli, cocycle, geometry, hill
from adiaspec.cli import load_config, main


def reference_sections(out_dir):
    # mirrors configs/reference.ini, shrunk so a full verify run takes
    # seconds instead of minutes
    return {
        "potential_v": {"kind": "trig", "terms": "1 2.0 0.0"},
        "potential_w": {"terms": "1 4.8 0.0", "strip_half_width": "0.5"},
        "window": {"n": "1", "m": "0", "energy": "auto"},
        "grid": {"ceiling": "45.0"},
        "cocycle": {
            "epsilons": "0.6 0.5",
            "periods": "3",
            "z": "0.0",
            "z_samples": "4",
            "N": "4000",
            "renorm_stride": "8",
            "seed": "11",
        },
        "model": {
            "kind": "herman",
            "lam": "3.0",
            "n0": "1",
            "alpha": "0.5",
            "beta": "0.3",
            "m_amp": "0.1",
        },
        "tolerances": {"edge": "1e-10", "quadrature": "1e-10", "ode": "1e-8"},
        "output": {"directory": str(out_dir), "formats": "csv json"},
    }


def prepare(tmp_path, overrides=None, drop=()):
    out = tmp_path / "out"
    sections = reference_sections(out)
    for section, items in (overrides or {}).items():
        sections.setdefault(section, {}).update(items)
    for dotted in drop:
        section, key = dotted.split(".")
        del sections[section][key]
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    path = tmp_path / "run.ini"
    path.write_text("\n".join(lines))
    return str(path), out


ZERO_V = {"potential_v": {"kind": "zero", "terms": ""}, "grid": {"ceiling": "42.0"}}

# four energies across the reference window: the two inner ones are
# admissible, the two outer ones are not
GRID = {"window": {"energy_grid": "3.9 4.8 4"}}
GRID_ENERGIES = [3.9, 4.2, 4.5, 4.8]


def grid_reports(cfg, bands):
    c = load_config(cfg)
    return [analyze_window(c.potential_w, bands, E, c.n, c.m)
            for E in GRID_ENERGIES]


def out_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def wipe(out):
    if out.is_dir():
        shutil.rmtree(out)


def load_json(out, name):
    return json.loads((out / name).read_text())


def assert_numeric_fields(out, name, labels=()):
    # every field outside the label columns is a plain number
    header, rows = csv_rows(out, name)
    cols = [i for i, h in enumerate(header) if h not in labels]
    for row in rows:
        for i in cols:
            float(row[i])


def csv_rows(out, name):
    lines = (out / name).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# seed: ")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return header, rows


# ---------------------------------------------------------------------------
# bands


def test_bands_free_potential_edges(tmp_path):
    cfg, out = prepare(tmp_path, ZERO_V)
    assert main(["bands", "--config", cfg]) == 0
    header, rows = csv_rows(out, "bands.csv")
    assert header == ["edge_index", "energy", "gap_after"]
    edges = [float(r[1]) for r in rows]
    # free operator: doubled edges at (pi n)^2, every gap closed
    want = [0.0, math.pi**2, math.pi**2, 4 * math.pi**2, 4 * math.pi**2]
    assert edges == pytest.approx(want, abs=1e-8)
    for r in rows:
        j = int(r[0])
        assert r[2] == ("closed" if j % 2 == 0 else "")


def test_bands_rerun_is_byte_identical(tmp_path):
    cfg, out = prepare(tmp_path, ZERO_V)
    assert main(["bands", "--config", cfg]) == 0
    first = out_bytes(out)
    wipe(out)
    assert main(["bands", "--config", cfg]) == 0
    assert out_bytes(out) == first


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _or_malformed(valid, *extra):
    """valid, or about one time in ten a malformed or extreme value."""
    bad = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "1 2",
                           "0x10", "--3", "0", "-1", *extra])
    return st.tuples(st.integers(0, 9), valid, bad).map(
        lambda t: t[2] if t[0] == 9 else t[1])


def _number(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _lines(items):
    return "\n    " + "\n    ".join(" ".join(map(str, it)) for it in items)


# valid ceilings stay at most 30 to keep each example fast (the band scan
# grows faster than the ceiling: on the reference V, 400 takes ~0.1 s and
# 1,800 ~1 s); ceilings too large to
# scan are refused in closed form before any work, here through "1e9" and
# "1e300" and in test_oversized_band_model_fill_exits_numeric_before_any_fill
FUZZ_SECTIONS = st.fixed_dictionaries({
    "grid": st.fixed_dictionaries({
        "ceiling": _or_malformed(_number(0.5, 30.0), "1e9", "1e300")}),
    "potential_v": st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("trig"),
            "terms": _or_malformed(st.lists(
                st.tuples(st.integers(-1, 3), _number(-5.0, 5.0),
                          _number(-5.0, 5.0)), min_size=1, max_size=3).map(
                    _lines))}),
        st.fixed_dictionaries({
            "kind": st.just("piecewise"),
            "segments": _or_malformed(st.lists(
                st.tuples(st.sampled_from([0.3, 0.5, 0.7]), _number(-5.0, 10.0)),
                max_size=2, unique_by=lambda t: t[0]).map(
                    lambda ss: _lines([(0.0, 1.0)] + sorted(ss))), "1.2 3")}),
        st.fixed_dictionaries({"kind": _or_malformed(st.just("zero"))})),
    "tolerances": st.fixed_dictionaries({
        key: _or_malformed(st.floats(-14.0, -2.0).map(lambda e: repr(10.0 ** e)),
                           "1e-300")
        for key in ("edge", "quadrature", "ode")}),
})


@given(FUZZ_SECTIONS)
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_bands_fuzzed_config_exits_cleanly_with_strict_output(sections):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = prepare(Path(tmp), sections)
        rc = main(["bands", "--config", cfg])
        assert rc in (0, 2, 3, 4)
        written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        assert written == (["bands.csv"] if rc == 0 else [])
        if rc == 0:
            lines = (out / "bands.csv").read_text().splitlines()
            json.loads(lines[0][len("# config: "):],
                       parse_constant=_reject_constant)
            rows = list(csv.reader(lines[2:]))
            assert rows[0] == ["edge_index", "energy", "gap_after"]
            for j, (index, energy, gap) in enumerate(rows[1:], start=1):
                assert int(index) == j
                assert math.isfinite(float(energy))
                assert gap in ("", "open", "closed")


def test_oversized_band_model_fill_exits_numeric_before_any_fill(
        tmp_path, capsys, monkeypatch):
    # 1e5 passes the scan-grid guard; the model fill would need ~5.9e7
    # node-steps by the closed-form estimate
    def no_fill(*args, **kwargs):
        raise AssertionError("band model filled before its cost was bounded")

    monkeypatch.setattr(hill, "_discriminant_batch", no_fill)
    cfg, out = prepare(tmp_path, {"grid": {"ceiling": "1e5"}})
    start = time.perf_counter()
    assert main(["bands", "--config", cfg]) == 4
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ResolutionFailure")
    assert "band model fill" in err
    assert list(out.iterdir()) == []


def test_oversized_energy_grid_exits_numeric_before_the_band_scan(
        tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("band scan ran before the grid was bounded")

    monkeypatch.setattr(hill, "band_edges", no_scan)
    cfg, out = prepare(tmp_path, {"window": {"energy_grid": "3.9 4.8 10001"}})
    assert main(["geometry", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ResolutionFailure")
    assert "window.energy_grid" in err
    assert not out.exists()
    cfg, _ = prepare(tmp_path, {"window": {"energy_grid": "3.9 4.8 10000"}})
    assert load_config(cfg).energy_grid == (3.9, 4.8, 10000)


def test_csv_output_uses_unix_newlines(tmp_path):
    cfg, out = prepare(tmp_path, ZERO_V)
    assert main(["bands", "--config", cfg]) == 0
    blob = (out / "bands.csv").read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_seed_override_is_recorded(tmp_path):
    cfg, out = prepare(tmp_path, ZERO_V)
    assert main(["bands", "--config", cfg, "--seed", "99"]) == 0
    lines = (out / "bands.csv").read_text().splitlines()
    assert lines[1] == "# seed: 99"


def test_out_override_redirects_and_is_stamped(tmp_path):
    cfg, _ = prepare(tmp_path, ZERO_V)
    other = tmp_path / "elsewhere"
    assert main(["bands", "--config", cfg, "--out", str(other)]) == 0
    lines = (other / "bands.csv").read_text().splitlines()
    stamp = json.loads(lines[0][len("# config: "):])
    assert stamp["output"]["directory"] == str(other)


# ---------------------------------------------------------------------------
# config errors


def test_missing_key_exits_input_error(tmp_path, capsys):
    cfg, _ = prepare(tmp_path, drop=("window.n",))
    assert main(["bands", "--config", cfg]) == 2
    assert "missing key window.n" in capsys.readouterr().err


def test_unknown_potential_kind_exits_input_error(tmp_path, capsys):
    cfg, _ = prepare(tmp_path, {"potential_v": {"kind": "quartic"}})
    assert main(["bands", "--config", cfg]) == 2
    assert "potential_v.kind" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("cocycle", "N", "2.5"),
    ("cocycle", "z", "nan"),
    ("cocycle", "epsilons", "inf"),
    ("window", "energy", "abc"),
])
def test_malformed_number_exits_input_error(tmp_path, capsys, section, key,
                                            value):
    cfg, _ = prepare(tmp_path, {section: {key: value}})
    assert main(["verify", "--config", cfg]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_missing_config_file_exits_input_error(tmp_path, capsys):
    assert main(["bands", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bands", "actions", "stokes", "cocycle",
                                     "verify"])
def test_energy_flag_outside_geometry_exits_input_error(tmp_path, capsys,
                                                        command):
    cfg, out = prepare(tmp_path)
    assert main([command, "--config", cfg, "--energy", "4.4"]) == 2
    err = capsys.readouterr().err
    assert "--energy" in err and command in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bands", "geometry", "actions", "stokes",
                                     "cocycle"])
def test_threads_flag_outside_verify_exits_input_error(tmp_path, capsys,
                                                       command):
    cfg, out = prepare(tmp_path)
    assert main([command, "--config", cfg, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "--threads" in err and command in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_input_error(tmp_path, capsys, threads):
    cfg, out = prepare(tmp_path)
    assert main(["verify", "--config", cfg, "--threads", threads]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_energy_flag_exits_input_error(tmp_path, capsys, value):
    cfg, out = prepare(tmp_path)
    assert main(["geometry", "--config", cfg, "--energy", value]) == 2
    assert "--energy must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_result_exits_numeric_without_writing(tmp_path, capsys,
                                                         monkeypatch):
    real = cocycle.cocycle_lyapunov

    def nan_theta(spec):
        return replace(real(spec), value=math.nan)

    monkeypatch.setattr(cocycle, "cocycle_lyapunov", nan_theta)
    cfg, out = prepare(tmp_path)
    assert main(["cocycle", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: NonFiniteResultError")
    assert "cocycle.json" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_non_finite_config_stamp_is_refused(tmp_path):
    cfg, _ = prepare(tmp_path)
    bad = replace(load_config(cfg), z=math.nan)
    with pytest.raises(adiaspec.NonFiniteResultError, match="bands.csv"):
        cli._write_csv(bad, 0, "bands.csv", ["edge_index"], [[1]])


# no admissible energy: each candidate source is named in the one message
NARROW_W = {"potential_w": {"terms": "1 0.5 0.0"}}
SEARCHED = [
    ({}, "automatic search"),
    ({"window": {"energy": "40.0"}}, "fixed energy window.energy = 40.0"),
    (GRID, "all 4 energies of window.energy_grid = 3.9 4.8 4"),
]


@pytest.mark.parametrize("command", ["actions", "stokes", "verify"])
@pytest.mark.parametrize("extra,searched", SEARCHED,
                         ids=["auto", "fixed", "grid"])
def test_no_admissible_energy_names_what_was_searched(tmp_path, capsys,
                                                      command, extra, searched):
    overrides = dict(NARROW_W)
    overrides.update(extra)
    cfg, out = prepare(tmp_path, overrides)
    assert main([command, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("no admissible energy: window conditions unsatisfied")
    assert searched in err


# ---------------------------------------------------------------------------
# geometry


def test_geometry_reference_outputs(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["geometry", "--config", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "branch_z1m.csv", "branch_z1p.csv", "geometry.json",
    ]
    doc = load_json(out, "geometry.json")
    assert set(doc) == {"config", "result", "seed"}
    report = doc["result"]["window_report"]
    assert report["a1_ok"] and report["a2_ok"] and report["a3_ok"]
    geom = doc["result"]["geometry"]
    assert geom["energy"] == pytest.approx(4.403247555246747, rel=1e-9)
    assert [g["label"] for g in geom["pre_gaps"]] == ["g0", "g1"]
    assert len(geom["branch_points"]) == 4
    header, rows = csv_rows(out, "branch_z1m.csv")
    assert header == ["kappa", "zeta"]
    assert len(rows) > 100
    for name in ("branch_z1m.csv", "branch_z1p.csv"):
        assert_numeric_fields(out, name)


def test_geometry_energy_override_reports_failed_window(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["geometry", "--config", cfg, "--energy", "40.0"]) == 0
    assert [p.name for p in out.iterdir()] == ["geometry.json"]
    doc = load_json(out, "geometry.json")
    report = doc["result"]["window_report"]
    assert not (report["a1_ok"] and report["a2_ok"] and report["a3_ok"])
    assert "geometry" not in doc["result"]


def test_geometry_energy_grid_picks_largest_margin(tmp_path, bands_ref):
    cfg, out = prepare(tmp_path, GRID)
    assert main(["geometry", "--config", cfg, "--format", "json"]) == 0
    admissible = [r for r in grid_reports(cfg, bands_ref) if r.all_ok]
    assert 0 < len(admissible) < len(GRID_ENERGIES)
    best = max(admissible, key=lambda r: r.margin)
    assert best is not admissible[0]
    geom = load_json(out, "geometry.json")["result"]["geometry"]
    assert geom["energy"] == pytest.approx(best.energy, abs=1e-12)


def test_geometry_narrow_window_exits_assumption(tmp_path, capsys):
    # A = 0.5 leaves no admissible energy anywhere, so the automatic
    # search cannot even produce a candidate to report on
    cfg, _ = prepare(tmp_path, {"potential_w": {"terms": "1 0.5 0.0"}})
    assert main(["geometry", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "window conditions unsatisfied" in err
    assert "automatic search" in err


def test_geometry_format_json_suppresses_tables(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["geometry", "--config", cfg, "--format", "json"]) == 0
    assert [p.name for p in out.iterdir()] == ["geometry.json"]
    doc = load_json(out, "geometry.json")
    assert doc["config"]["output"]["formats"] == ["json"]


# ---------------------------------------------------------------------------
# actions


def test_actions_reference_table(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["actions", "--config", cfg]) == 0
    header, rows = csv_rows(out, "actions.csv")
    assert header[:3] == ["E", "gap_label", "S"]
    assert header[-1] == "theta_asym"
    assert [r[1] for r in rows] == ["g0", "g1"]
    actions = [float(r[2]) for r in rows]
    assert all(s > 0 for s in actions)
    theta = {float(r[-1]) for r in rows}
    assert len(theta) == 1
    assert theta.pop() == pytest.approx(sum(actions) / (4 * math.pi), rel=1e-9)


def test_actions_energy_grid_keeps_admissible_energies(tmp_path, bands_ref):
    cfg, out = prepare(tmp_path, GRID)
    assert main(["actions", "--config", cfg]) == 0
    admissible = [r.energy for r in grid_reports(cfg, bands_ref) if r.all_ok]
    assert 0 < len(admissible) < len(GRID_ENERGIES)
    _, rows = csv_rows(out, "actions.csv")
    # one row per gap label at each admissible energy, energies ascending
    assert [r[1] for r in rows] == ["g0", "g1"] * len(admissible)
    want = [E for E in admissible for _ in ("g0", "g1")]
    assert [float(r[0]) for r in rows] == pytest.approx(want, abs=1e-12)


def run_counting_fills(tmp_path, monkeypatch, command, overrides=None):
    """Run `command` on the reference config, counting DiscriminantModel
    fills; each action set must agree with one read from a fresh model
    over its own window. Returns the fill count, the action sets and the
    output directory."""
    builds, results = [], []
    init = hill.DiscriminantModel.__init__
    compute = actions_mod.compute_actions

    def recording(*args, **kwargs):
        results.append((args, kwargs, compute(*args, **kwargs)))
        return results[-1][2]

    monkeypatch.setattr(hill.DiscriminantModel, "__init__",
                        lambda self, *a, **k: builds.append(1) or init(self, *a, **k))
    monkeypatch.setattr(actions_mod, "compute_actions", recording)
    cfg, out = prepare(tmp_path, overrides)
    assert main([command, "--config", cfg]) == 0
    n_builds = len(builds)
    for (geom,), kwargs, shared in results:
        lo, hi = geom.window
        V = geom.bands.model.V
        own = compute(geom, tol=kwargs["tol"],
                      model=hill.DiscriminantModel(V, lo - 0.5, hi + 0.5))
        assert own.labels == shared.labels
        for (_, s_own, _), (_, s_shared, _) in zip(own.entries, shared.entries):
            assert s_shared == pytest.approx(s_own, rel=1e-11, abs=0.0)
    return n_builds, results, out


def test_geometry_builds_one_band_model_per_band(tmp_path, monkeypatch):
    # the reference window holds one band; both of its pre-band tables
    # read the band scan's model, the run's only fill
    builds, _, out = run_counting_fills(tmp_path, monkeypatch, "geometry")
    assert (out / "branch_z1m.csv").exists() and (out / "branch_z1p.csv").exists()
    assert builds == 1


@pytest.mark.parametrize("grid", [GRID, {"window": {"energy_grid": "4.1 4.7 11"}}])
def test_actions_grid_fills_one_window_model(tmp_path, monkeypatch, grid):
    # one model fill per run: the band scan's, which serves every
    # admissible energy's actions
    builds, results, out = run_counting_fills(tmp_path, monkeypatch,
                                              "actions", grid)
    assert builds == 1
    assert len(results) == len(csv_rows(out, "actions.csv")[1]) // 2 > 1


def test_verify_fills_one_discriminant_model(tmp_path, monkeypatch):
    builds, results, _ = run_counting_fills(tmp_path, monkeypatch, "verify")
    assert builds == 1
    assert results


# ---------------------------------------------------------------------------
# stokes


def test_stokes_reference_traces(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["stokes", "--config", cfg]) == 0
    header, rows = csv_rows(out, "stokes.csv")
    assert header == ["trace", "node", "re_zeta", "im_zeta",
                      "re_kappa", "im_kappa"]
    doc = load_json(out, "stokes.json")
    traces = doc["result"]["traces"]
    # default starts: one just below each minus-side branch point
    assert len(traces) == 2
    for tr in traces:
        assert tr["length"] > 0
        assert tr["reason"] in {"max-length", "strip-boundary",
                                "branch-point", "stall", "step-limit"}
        assert tr["level_drift"] <= 1e-6 * tr["length"]
    assert {int(r[0]) for r in rows} == {0, 1}
    assert_numeric_fields(out, "stokes.csv")


def test_stokes_integrates_nothing_after_the_band_scan(tmp_path, monkeypatch):
    # each trace's strip panel is re-sampled from the scan's model: the
    # run's batched and scalar integrations are exactly those of the band
    # scan alone
    calls = []
    for owner, name in ((_ode, "transfer_batch"), (_ode, "propagate"),
                        (hill, "discriminant")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    cfg, out = prepare(tmp_path)
    assert main(["stokes", "--config", cfg]) == 0
    assert len(load_json(out, "stokes.json")["result"]["traces"]) == 2
    run = list(calls)
    calls.clear()
    c = load_config(cfg)
    hill.band_edges(c.potential_v, c.ceiling, tol=c.tol_edge)
    assert run == calls
    assert "transfer_batch" in calls and "discriminant" in calls


def test_stokes_json_counts_each_trace_fallbacks(tmp_path, monkeypatch):
    # the reference traces stay on the panel; with its bound refused every
    # trace hands points to the scalar integrator and says how many
    cfg, out = prepare(tmp_path)
    assert main(["stokes", "--config", cfg]) == 0
    traces = load_json(out, "stokes.json")["result"]["traces"]
    assert [tr["fallbacks"] for tr in traces] == [0, 0]
    monkeypatch.setattr(hill.ComplexDiscriminantModel, "bound",
                        lambda self, E: (complex("nan"), math.inf))
    refused = tmp_path / "refused"
    refused.mkdir()
    cfg, out = prepare(refused)
    assert main(["stokes", "--config", cfg]) == 0
    traces = load_json(out, "stokes.json")["result"]["traces"]
    assert len(traces) == 2
    assert all(tr["fallbacks"] > 0 for tr in traces)


@pytest.mark.parametrize("command", ["actions", "stokes"])
def test_point_values_of_w_skip_the_array_path(tmp_path, monkeypatch, command):
    # point-by-point W values come from AnalyticPotential.evaluator(); the
    # 0-d calls left are the constructor's two and the bracket end of each
    # vectorised root solve; numpy per point would make thousands
    scalar = []
    value = geometry.AnalyticPotential.value

    def spy(self, zeta):
        if np.ndim(zeta) == 0:
            scalar.append(zeta)
        return value(self, zeta)

    monkeypatch.setattr(geometry.AnalyticPotential, "value", spy)
    cfg, _ = prepare(tmp_path)
    assert main([command, "--config", cfg]) == 0
    assert len(scalar) < 10


@pytest.mark.parametrize("key,value", [
    ("family", "foo"),
    ("direction", "x"),
    ("direction", "2"),
    ("starts", "0.1 -0.02 7"),
    ("max_length", "0"),
    ("max_length", "-3"),
])
def test_stokes_malformed_section_exits_before_band_scan(tmp_path, capsys,
                                                         monkeypatch, key,
                                                         value):
    def no_scan(*args, **kwargs):
        raise AssertionError("band scan ran before [stokes] was parsed")

    monkeypatch.setattr(hill, "band_edges", no_scan)
    cfg, _ = prepare(tmp_path, {"stokes": {key: value}})
    assert main(["stokes", "--config", cfg]) == 2
    assert f"stokes.{key}" in capsys.readouterr().err


def test_geometry_stokes_verify_report_one_energy(tmp_path):
    # a short trace: only the energy matters here
    cfg, out = prepare(tmp_path, {"stokes": {"max_length": "0.05"}})
    for command in ("geometry", "stokes", "verify"):
        assert main([command, "--config", cfg, "--format", "json"]) == 0
    energy = load_json(out, "geometry.json")["result"]["geometry"]["energy"]
    assert load_json(out, "stokes.json")["result"]["energy"] == energy
    assert load_json(out, "verify.json")["result"]["energy"] == energy


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_herman_run_and_rerun(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["cocycle", "--config", cfg]) == 0
    doc = load_json(out, "cocycle.json")
    result = doc["result"]
    assert result["kind"] == "herman"
    assert result["N"] == 4000
    assert len(result["z_samples"]) == 4
    assert result["theta"] > 0
    assert result["standard_error"] >= 0
    assert result["Theta"] == pytest.approx(result["theta"] * 0.6 / (2 * math.pi))
    first = out_bytes(out)
    wipe(out)
    assert main(["cocycle", "--config", cfg]) == 0
    assert out_bytes(out) == first


def test_cocycle_singular_model_exits_numeric(tmp_path, capsys):
    cfg, _ = prepare(tmp_path, {"model": {
        "kind": "model", "a0": "0", "a1": "0", "b0": "0", "b1": "0",
    }})
    assert main(["cocycle", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: DegeneracyError")


@pytest.mark.parametrize("lam", ["0.001", "1000"])
def test_cocycle_degenerate_product_exits_numeric_without_writing(
        tmp_path, capsys, lam):
    # one renormalisation, after the last factor: the product of 2000
    # factors of norm ~lam has underflowed to zero or overflowed
    cfg, out = prepare(tmp_path, {"model": {"lam": lam},
                                  "cocycle": {"N": "2000",
                                              "renorm_stride": "50000"}})
    assert main(["cocycle", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: DegeneracyError")
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value, stored", [("yes", True), ("no", False)])
def test_cocycle_store_blocks(tmp_path, value, stored):
    cfg, out = prepare(tmp_path, {"model": {"store_blocks": value}})
    assert main(["cocycle", "--config", cfg]) == 0
    result = load_json(out, "cocycle.json")["result"]
    # 4 z samples of N / renorm_stride = 4000 / 8 blocks
    assert len(result.get("block_log_norms", [])) == (2000 if stored else 0)


@pytest.mark.parametrize("value", ["true", "1", "Yes", ""])
def test_cocycle_store_blocks_other_values_exit_input_error(tmp_path, capsys,
                                                            value):
    cfg, out = prepare(tmp_path, {"model": {"store_blocks": value}})
    assert main(["cocycle", "--config", cfg]) == 2
    assert "model.store_blocks" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_oversized_cocycle_exits_numeric_before_any_factor(tmp_path, capsys,
                                                           monkeypatch):
    # 2e6 iterations at 8 z samples: 1.6e7 factors, above the 1e7 limit
    def no_factors(*args, **kwargs):
        raise AssertionError("cocycle factor evaluated before its cost "
                             "was bounded")

    monkeypatch.setattr(cocycle.MatrixFamily, "rows", no_factors)
    cfg, out = prepare(tmp_path, {"cocycle": {"N": "2000000",
                                              "z_samples": "8"}})
    start = time.perf_counter()
    assert main(["cocycle", "--config", cfg]) == 4
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ResolutionFailure")
    assert "cocycle factors" in err
    assert list(out.iterdir()) == []


def test_unresolved_discriminant_panel_exits_numeric(tmp_path, capsys,
                                                    monkeypatch):
    # a band-scan panel whose series never reaches its noise plateau is
    # filled again at degrees 32, 64 and 128, then refused
    monkeypatch.setattr(hill, "_chop", lambda coeffs, tol: len(coeffs))
    cfg, out = prepare(tmp_path)
    assert main(["bands", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ResolutionFailure")
    assert "unresolved at degree 128" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "stokes"])
def test_every_fixed_step_batch_fits_a_chunk(command, tmp_path, monkeypatch):
    # segments times members of every batch of the band scan, window,
    # band, strip and phase models stay within _ode.CHUNK, so the
    # (14, 4, segments, members) stage buffer holds at most 1.75 MiB complex
    shapes = []
    real = _ode._fixed_steps

    def spy(*args):
        shapes.append(args[5].shape)
        return real(*args)

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    cfg, _ = prepare(tmp_path)
    assert main([command, "--config", cfg]) == 0
    assert shapes and all(math.prod(s[1:]) <= _ode.CHUNK for s in shapes)
    assert any(s[1] > 1 for s in shapes)


def test_oversized_verify_exits_numeric_before_the_band_scan(tmp_path, capsys,
                                                           monkeypatch):
    # 1e12 periods at epsilon 0.5 is ~1.3e13 unit blocks, above the 1e7 limit
    def no_scan(*args, **kwargs):
        raise AssertionError("band scan started before the run length "
                             "was bounded")

    monkeypatch.setattr(hill, "band_edges", no_scan)
    cfg, out = prepare(tmp_path, {"cocycle": {"periods": "1e12"}})
    start = time.perf_counter()
    assert main(["verify", "--config", cfg]) == 4
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ResolutionFailure")
    assert "unit blocks" in err
    assert list(out.iterdir()) == []


def test_cocycle_without_model_section_exits_input_error(tmp_path, capsys):
    cfg, _ = prepare(tmp_path, drop=("model.kind", "model.lam", "model.n0",
                                     "model.alpha", "model.beta",
                                     "model.m_amp"))
    assert main(["cocycle", "--config", cfg]) == 2
    assert "[model]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_small_run(tmp_path, capsys):
    cfg, out = prepare(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    verdict = capsys.readouterr().out.strip().splitlines()[-1]
    assert verdict in {"PASS", "FAIL"}
    doc = load_json(out, "verify.json")
    result = doc["result"]
    assert result["verdict"] == verdict
    assert result["theta_asym"] > 0
    cells = result["cells"]
    assert [c["epsilon"] for c in cells] == [0.6, 0.5]
    for c in cells:
        want = abs(c["theta_num"] - result["theta_asym"]) / result["theta_asym"]
        assert c["rel_error"] == pytest.approx(want, rel=1e-12)
    header, rows = csv_rows(out, "verify.csv")
    assert header == ["E", "epsilon", "theta_asym", "theta_num",
                      "rel_error", "standard_error"]
    assert len(rows) == 2


def test_verify_rerun_and_threads_byte_identical(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    first = out_bytes(out)
    wipe(out)
    assert main(["verify", "--config", cfg]) == 0
    assert out_bytes(out) == first
    wipe(out)
    assert main(["verify", "--config", cfg, "--threads", "2"]) == 0
    assert out_bytes(out) == first


def test_verify_single_epsilon_has_no_trend(tmp_path):
    cfg, out = prepare(tmp_path, {"cocycle": {"epsilons": "0.5"}})
    assert main(["verify", "--config", cfg]) == 0
    assert load_json(out, "verify.json")["result"]["trend"] == "insufficient points"


def test_verify_narrow_window_exits_assumption(tmp_path, capsys):
    cfg, _ = prepare(tmp_path, {"potential_w": {"terms": "1 0.5 0.0"}})
    assert main(["verify", "--config", cfg]) == 3
    assert "window conditions unsatisfied" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console script


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def write_launcher(bin_dir, name, target):
    # the same launcher pip writes for a console_scripts entry point, so
    # the declared script runs from a plain checkout without an install
    module, _, attr = target.partition(":")
    bin_dir.mkdir()
    exe = bin_dir / name
    exe.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
    return exe


def test_console_script_smoke(tmp_path):
    target = load_pyproject()["project"]["scripts"]["adiaspec"]
    exe = write_launcher(tmp_path / "bin", "adiaspec", target)
    # the src directory this suite imported adiaspec from, made absolute:
    # the launcher runs in its own process from another working directory
    src = str(Path(adiaspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cfg, out = prepare(tmp_path, ZERO_V)
    proc = subprocess.run([str(exe), "bands", "--config", cfg],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0
    assert "bands.csv" in proc.stdout
    assert (out / "bands.csv").is_file()


# ---------------------------------------------------------------------------
# runtime dependencies


SRC = Path(adiaspec.__file__).resolve().parents[1]

# run in a fresh interpreter: every import of scipy fails, then each
# command runs through main() and its exit code is printed after "exit"
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, NoScipy())
from adiaspec.cli import main
for command in sys.argv[2:]:
    print("exit", command, main([command, "--config", sys.argv[1]]))
"""


def _fresh_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


# run in a fresh interpreter: import adiaspec.cli, then run each command
# through main() on the config argv[1]; the last line is a JSON map from
# "import" and each command to the modules loaded by then
_LOADS = """
import json, sys
import adiaspec.cli
loaded = {"import": sorted(sys.modules)}
for command in sys.argv[2:]:
    assert adiaspec.cli.main([command, "--config", sys.argv[1]]) == 0, command
    loaded[command] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def _loaded_after(cfg="", commands=(), cwd=None):
    proc = _fresh_python(["-c", _LOADS, cfg, *commands], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return {step: set(names) for step, names in
            json.loads(proc.stdout.splitlines()[-1]).items()}


def _loaded_under(prefix, names):
    return sorted(m for m in names if m == prefix or m.startswith(prefix + "."))


def test_import_loads_no_scipy():
    assert _loaded_under("scipy", _loaded_after()["import"]) == []


def test_import_loads_no_thread_pool():
    # concurrent.futures (and the logging it imports) is loaded only by
    # verify --threads > 1
    assert _loaded_under("concurrent", _loaded_after()["import"]) == []


def test_each_command_loads_only_what_it_runs(tmp_path):
    # one interpreter runs the commands in this order, so each step's
    # modules include its predecessors': bands, geometry and stokes never
    # load actions, cocycle or the numpy.fft/numpy.random cocycle brings,
    # and actions never loads cocycle
    cfg, _ = prepare(tmp_path)
    loaded = _loaded_after(cfg, ["bands", "geometry", "stokes", "actions"],
                           cwd=tmp_path)
    for step in ("import", "bands", "geometry", "stokes"):
        for module in ("adiaspec.actions", "adiaspec.cocycle", "numpy.random",
                       "numpy.fft"):
            assert _loaded_under(module, loaded[step]) == [], (step, module)
    assert "adiaspec.actions" in loaded["actions"]
    assert "adiaspec.cocycle" not in loaded["actions"]
    # load_config builds a geometry.AnalyticPotential, so every command
    # loads geometry and hill
    assert {"adiaspec.geometry", "adiaspec.hill"} <= loaded["import"]


def test_commands_run_without_scipy(tmp_path):
    cfg, out = prepare(tmp_path)
    commands = ["bands", "geometry", "actions", "stokes", "verify"]
    proc = _fresh_python(["-c", _NO_SCIPY, cfg, *commands], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert codes == [f"exit {c} 0" for c in commands]
    assert (out / "verify.json").is_file()


# ---------------------------------------------------------------------------
# package surface


def test_every_public_name_is_its_modules_object():
    # every public name is a class or function of the module it resolves from
    for name in adiaspec.__all__:
        value = getattr(adiaspec, name)
        assert value is vars(sys.modules[value.__module__])[name], name
    namespace: dict = {}
    exec("from adiaspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == adiaspec.__all__
    assert all(namespace[n] is getattr(adiaspec, n) for n in namespace)
    assert set(adiaspec.__all__) | {"__version__"} <= set(dir(adiaspec))
    with pytest.raises(AttributeError, match="no attribute 'band_edge'"):
        adiaspec.band_edge  # noqa: B018


def test_package_loads_a_module_on_first_use():
    proc = _fresh_python(["-c", (
        "import sys, adiaspec\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.startswith('adiaspec.')]\n"
        "print(loaded())\n"
        "adiaspec.band_edges\n"
        "print('adiaspec.hill' in loaded(), 'adiaspec.cocycle' in loaded())\n"
        "from adiaspec import cocycle, cli, _ode\n"
        "print(adiaspec.cocycle is cocycle, cli.main is adiaspec.cli.main, "
        "_ode.CHUNK > 0)\n")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False", "True True True"]


def _top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_third_party_import_is_a_declared_dependency():
    declared = {re.split(r"[ <>=!~;\[]", req, maxsplit=1)[0].lower()
                for req in load_pyproject()["project"]["dependencies"]}
    used = {name for path in (SRC / "adiaspec").glob("*.py")
            for name in _top_level_imports(path)}
    third_party = used - set(sys.stdlib_module_names) - {"adiaspec"}
    assert third_party == {"numpy"}
    assert third_party <= declared
