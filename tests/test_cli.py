"""End-to-end checks of the command line driver."""

import json
import math
import os
import shutil
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import adiaspec
from adiaspec import analyze_window, cli, hill
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
    real = cli.cocycle_mod.cocycle_lyapunov

    def nan_theta(spec):
        return replace(real(spec), value=math.nan)

    monkeypatch.setattr(cli.cocycle_mod, "cocycle_lyapunov", nan_theta)
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


@pytest.mark.parametrize("key,value", [
    ("direction", "x"),
    ("starts", "0.1 -0.02 7"),
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
