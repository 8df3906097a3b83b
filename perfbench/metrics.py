"""Metric tables and the reduction of spans to per-layer metrics.

END_TO_END and PER_LAYER mirror BENCHMARK.json (selftest.py checks that).
Per-layer metrics are sums over one pass: every CLI invocation of the pass
contributes its spans.  A metric whose unit is in EXACT_UNITS is a count
or a deterministic output value; it must repeat exactly between passes
and between runs.  The others are times, reported as medians.
"""

from __future__ import annotations

from collections import defaultdict

# (name, unit, better, bound)
END_TO_END = [
    ("nominal_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("cli.wall_s", "s", "lower"),
    ("gauge.speed", "share", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.band_scans", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.nonstrict_csv_fields", "count", "lower"),
    ("ode.real.calls", "count", "lower"),
    ("ode.real.steps", "count", "lower"),
    ("ode.real.s", "s", "lower"),
    ("ode.real.us_per_step", "us", "lower"),
    ("ode.complex.calls", "count", "lower"),
    ("ode.complex.steps", "count", "lower"),
    ("ode.complex.s", "s", "lower"),
    ("hill.band_edges.s", "s", "lower"),
    ("hill.band_edges.steps", "count", "lower"),
    ("hill.discriminant.calls", "count", "lower"),
    ("hill.DiscriminantModel.builds", "count", "lower"),
    ("hill.DiscriminantModel.nodes", "count", "lower"),
    ("hill.DiscriminantModel.build_s", "s", "lower"),
    ("hill.DiscriminantModel.evals", "count", "lower"),
    ("hill.DiscriminantModel.eval_s", "s", "lower"),
    ("hill.DiscriminantModel.evals_per_node", "evals/node", "higher"),
    ("geometry.window.s", "s", "lower"),
    ("geometry.branch_points.s", "s", "lower"),
    ("geometry.real_branch.s", "s", "lower"),
    ("geometry.real_branch.self_s", "s", "lower"),
    ("geometry.trace_stokes_line.s", "s", "lower"),
    ("geometry.trace_stokes_line.nodes", "count", "lower"),
    ("actions.compute_actions.s", "s", "lower"),
    ("actions.compute_actions.self_s", "s", "lower"),
    ("actions.gaps", "count", "lower"),
    ("actions.quad_err", "abs", "lower"),
    ("cocycle.direct_lyapunov.s", "s", "lower"),
    ("cocycle.direct_lyapunov.blocks", "count", "lower"),
    ("cocycle.direct_lyapunov.us_per_block", "us", "lower"),
    ("cocycle.direct_lyapunov.steps_per_block", "steps/block", "lower"),
    ("cocycle.direct_lyapunov.theta_rel_err", "ratio", "lower"),
    ("cocycle.cocycle_lyapunov.s", "s", "lower"),
    ("cocycle.cocycle_lyapunov.products", "count", "lower"),
    ("cocycle.cocycle_lyapunov.renorms", "count", "lower"),
    ("cocycle.cocycle_lyapunov.us_per_product", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

EXACT_UNITS = {"count", "bytes", "evals/node", "steps/block", "abs", "ratio"}


# spans that nest in themselves (analyze_window inside best_window_energy,
# _write_csv and _write_json share one name): only the outermost one counts
_OUTERMOST_TIME = {"geometry.window": "geometry.window.s",
                   "cli.write": "cli.write_s"}
_ATTR_METRIC = {"gaps": "actions.gaps", "quad_err": "actions.quad_err"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer sums over the traced invocations of one pass.

    ``cli.wall_s``, ``gauge.speed``, ``cli.output_bytes``,
    ``cli.nonstrict_csv_fields``, ``cocycle.direct_lyapunov.theta_rel_err``
    and ``trace.overhead_s`` come from outside the spans and are added by
    the caller.
    """
    m: dict[str, float] = defaultdict(float)
    direct_steps = 0
    for rep in reports:
        m["cli.import_s"] += rep["import_s"]
        m["cli.load_config_s"] += rep["load_config_s"]
        spans = rep["spans"]
        child_time = [0.0] * len(spans)
        ancestors: list[frozenset] = [frozenset()] * len(spans)
        for sid, parent, name, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                ancestors[sid] = ancestors[parent] | {spans[parent][2]}
        for sid, parent, name, start, end, attrs in spans:
            dur = end - start
            anc = ancestors[sid]
            if name == "ode.propagate":
                kind = "complex" if attrs["complex"] else "real"
                m[f"ode.{kind}.calls"] += 1
                m[f"ode.{kind}.steps"] += attrs["steps"]
                m[f"ode.{kind}.s"] += dur
                if "hill.band_edges" in anc:
                    m["hill.band_edges.steps"] += attrs["steps"]
                if "cocycle.direct_lyapunov" in anc:
                    direct_steps += attrs["steps"]
            elif name == "hill.discriminant":
                m["hill.discriminant.calls"] += 1
                if "hill.DiscriminantModel.build" in anc:
                    m["hill.DiscriminantModel.nodes"] += 1
            elif name == "hill.band_edges":
                m["cli.band_scans"] += 1
                m["hill.band_edges.s"] += dur
            elif name == "hill.DiscriminantModel.build":
                m["hill.DiscriminantModel.builds"] += 1
                m["hill.DiscriminantModel.build_s"] += dur
            elif name == "hill.DiscriminantModel.eval":
                if name not in anc:
                    m["hill.DiscriminantModel.evals"] += attrs["n"]
                    m["hill.DiscriminantModel.eval_s"] += dur
            elif name in _OUTERMOST_TIME:
                if name not in anc:
                    m[_OUTERMOST_TIME[name]] += dur
            elif name in ("geometry.branch_points", "geometry.real_branch",
                          "geometry.trace_stokes_line", "actions.compute_actions",
                          "cocycle.direct_lyapunov", "cocycle.cocycle_lyapunov"):
                m[name + ".s"] += dur
                m[name + ".self_s"] += dur - child_time[sid]
                for key, value in (attrs or {}).items():
                    m[_ATTR_METRIC.get(key, f"{name}.{key}")] += value
    m["ode.real.us_per_step"] = 1e6 * _ratio(m["ode.real.s"], m["ode.real.steps"])
    m["hill.DiscriminantModel.evals_per_node"] = _ratio(
        m["hill.DiscriminantModel.evals"], m["hill.DiscriminantModel.nodes"])
    blocks = m["cocycle.direct_lyapunov.blocks"]
    m["cocycle.direct_lyapunov.us_per_block"] = 1e6 * _ratio(
        m["cocycle.direct_lyapunov.s"], blocks)
    m["cocycle.direct_lyapunov.steps_per_block"] = _ratio(direct_steps, blocks)
    m["cocycle.cocycle_lyapunov.us_per_product"] = 1e6 * _ratio(
        m["cocycle.cocycle_lyapunov.s"], m["cocycle.cocycle_lyapunov.products"])
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
