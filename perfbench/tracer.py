"""In-memory spans around the calls into each adiaspec layer.

The tracer wraps functions from outside the program: every module
attribute (or class attribute) that is the original function object is
replaced by a timing wrapper, and ``restore`` puts the originals back.
Each span is ``(id, parent_id, name, start, end, attrs)``; the parent is
the innermost wrapped call that was running when the span started, so
self time is a span's duration minus that of its direct children.

Spans stay in memory until the traced process ends; nothing is written
while the program runs, so traced outputs are byte-identical to untraced
ones.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _ode_attrs(args, kwargs, result):
    # both callers pass the energy positionally: propagate(q, E, x0, x1, ...)
    return {"complex": isinstance(args[1], complex), "steps": result[2]}


def _eval_attrs(args, kwargs, result):
    return {"n": int(np.size(args[1]))}


def _stokes_attrs(args, kwargs, result):
    return {"nodes": len(result.points)}


def _actions_attrs(args, kwargs, result):
    return {"gaps": len(result.entries),
            "quad_err": float(sum(e for _, _, e in result.entries))}


def _direct_attrs(args, kwargs, result):
    return {"blocks": result.N_used}


def _cocycle_attrs(args, kwargs, result):
    return {"products": result.N_used * len(result.z_samples),
            "renorms": len(result.per_block)}


def layer_targets():
    """(owner, attribute, span name, attrs function) for every wrapped call.

    Functions bound by name in several modules (``hill.discriminant`` is
    imported into ``geometry``) are found in every module that holds them.
    """
    from adiaspec import _ode, actions, cli, cocycle, geometry, hill

    model = hill.DiscriminantModel
    return [
        (_ode, "propagate", "ode.propagate", _ode_attrs),
        (hill, "discriminant", "hill.discriminant", None),
        (hill, "band_edges", "hill.band_edges", None),
        (model, "__init__", "hill.DiscriminantModel.build", None),
        (model, "__call__", "hill.DiscriminantModel.eval", _eval_attrs),
        (model, "derivative", "hill.DiscriminantModel.eval", _eval_attrs),
        (geometry, "best_window_energy", "geometry.window", None),
        (geometry, "analyze_window", "geometry.window", None),
        (geometry, "branch_points", "geometry.branch_points", None),
        (geometry, "real_branch", "geometry.real_branch", None),
        (geometry, "trace_stokes_line", "geometry.trace_stokes_line",
         _stokes_attrs),
        (actions, "compute_actions", "actions.compute_actions", _actions_attrs),
        (cocycle, "direct_lyapunov", "cocycle.direct_lyapunov", _direct_attrs),
        (cocycle, "cocycle_lyapunov", "cocycle.cocycle_lyapunov",
         _cocycle_attrs),
        (cli, "load_config", "cli.load_config", None),
        (cli, "_write_csv", "cli.write", None),
        (cli, "_write_json", "cli.write", None),
    ]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attrs_fn=None):
        spans, stack = self.spans, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            attrs = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, attrs)

        return traced

    def install(self, targets) -> None:
        """Wrap each target wherever it is bound in a loaded adiaspec module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "adiaspec" or n.startswith("adiaspec."))]
        for owner, attr, name, attrs_fn in targets:
            original = vars(owner)[attr]
            wrapper = self.wrap(original, name, attrs_fn)
            for holder in [owner] + [m for m in modules if m is not owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()
