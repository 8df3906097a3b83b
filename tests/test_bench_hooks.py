"""The benchmark's tracer wraps program functions by name; every name it
wraps must still exist where it looks for it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets()
    assert targets
    for owner, attr, _span, _attrs in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])
