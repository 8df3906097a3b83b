"""The benchmark's hooks into the program: every name its tracer wraps
must still exist where it looks for it, and each of its workloads must
pass its own output checks and match its recorded answers at the default
seed, run here in-process."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from adiaspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = load("tracer")
    targets = tracer.layer_targets()
    assert targets
    for owner, attr, _span, _attrs in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])


@pytest.mark.parametrize("workload", ["verify", "spectrum", "cocycle"])
def test_workload_passes_its_checks_and_recorded_answers(workload, tmp_path):
    workloads = load("workloads")
    seed = workloads.DEFAULT_SEED
    spec = workloads.generate(workload, seed)
    ini = dict(spec["ini"])
    for name, text in ini.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    errors, answers = [], {}
    for argv in spec["argv"]:
        command, config = argv[0], argv[2]
        if config == "{stokes}":
            config = "stokes.ini"
            ini[config] = workloads.stokes_ini(
                ini["spectrum.ini"], str(out / "geometry.json"), seed)
            (tmp_path / config).write_text(ini[config])
        rc = cli.main([command, "--config", str(tmp_path / config),
                       "--out", str(out), *argv[3:]])
        assert rc == 0, command
        errs, got, _wrapped = workloads.check(command, str(out), ini[config])
        errors += errs
        answers.update({f"{command}.{k}": v for k, v in got.items()})
    assert errors == []
    assert workloads.compare_reference(workload, answers,
                                       next(iter(spec["ini"].values()))) == []
