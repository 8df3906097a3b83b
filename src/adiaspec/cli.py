"""Command-line front end: config ingestion, sweeps, result persistence.

Outputs are deterministic down to the byte for a fixed config and seed:
floats are serialized with repr, JSON keys are sorted, rows are emitted
in sorted (E, then descending epsilon) order, and every file embeds the
resolved config and the seed.  Parallel dispatch (--threads) only changes
wall time, never file contents.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geometry_mod
from . import hill
from .errors import (
    AdiaspecError,
    ConfigError,
    InvalidInputError,
    NonFiniteResultError,
    ResolutionFailure,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4

# most energies in a window.energy_grid: each admissible one costs ~2 ms
# of actions (and any one ~46 us and ~480 B of window report)
_ENERGY_GRID_MAX = 10_000
# most cocycle.epsilons: each verify cell pays for one phase-model fill
_EPSILONS_MAX = 100
# most [stokes] starts: each trace takes up to 20,000 steps (~15-25 ms at
# the default max_length)
_STOKES_STARTS_MAX = 1_000
# how far below each '-' branch point the default Stokes starts lie
_STOKES_DEFAULT_DEPTH = 0.02

# every key some command reads, by section (configparser lowercases keys:
# [cocycle] N is "n"); any other section or key is refused, so that a typo
# does not run on defaults
_CONFIG_KEYS = {
    "potential_v": {"kind", "terms", "segments"},
    "potential_w": {"terms", "strip_half_width"},
    "window": {"n", "m", "energy", "energy_grid"},
    "grid": {"ceiling"},
    "cocycle": {"epsilons", "periods", "z", "z_samples", "n",
                "renorm_stride", "seed"},
    "model": {"kind", "store_blocks", "a0", "a1", "b0", "b1",
              "lam", "n0", "alpha", "beta", "m_amp"},
    "stokes": {"family", "direction", "max_length", "starts"},
    "tolerances": {"edge", "quadrature", "ode"},
    "output": {"directory", "formats"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, already parsed and validated."""

    potential_v: hill.PeriodicPotential
    potential_w: geometry_mod.AnalyticPotential
    n: int
    m: int
    energy: float | None  # None means "maximize the window margin"
    energy_grid: tuple[float, float, int] | None
    ceiling: float
    epsilons: tuple[float, ...]
    periods: float
    z: float
    z_samples: int
    iterations: int
    renorm_stride: int
    seed: int
    tol_edge: float
    tol_quad: float
    tol_ode: float
    out_dir: str
    formats: tuple[str, ...]
    model: dict
    stokes: dict

    @property
    def resolved(self) -> dict:
        """Plain-data mirror of the config, embedded in every output."""
        v, w = self.potential_v, self.potential_w
        return {
            "potential_v": {"kind": v.kind,
                            "coefficients": [list(t) for t in v.coefficients],
                            "segments": [list(t) for t in v.segments]},
            "potential_w": {"terms": [list(t) for t in w.coefficients],
                            "strip_half_width": w.strip_half_width},
            "window": {"n": self.n, "m": self.m, "energy": self.energy,
                       "energy_grid": (list(self.energy_grid) if self.energy_grid
                                       else None)},
            "grid": {"ceiling": self.ceiling},
            "cocycle": {"epsilons": list(self.epsilons), "periods": self.periods,
                        "z": self.z, "z_samples": self.z_samples, "N": self.iterations,
                        "renorm_stride": self.renorm_stride, "seed": self.seed},
            "tolerances": {"edge": self.tol_edge, "quadrature": self.tol_quad,
                           "ode": self.tol_ode},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
            "model": dict(sorted(self.model.items())),
            "stokes": dict(sorted(self.stokes.items())),
        }


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")

    def need(section: str, key: str) -> str:
        if not cp.has_option(section, key):
            raise ConfigError(f"missing key {section}.{key}")
        return cp.get(section, key)

    def opt(section: str, key: str, fallback: str) -> str:
        return cp.get(section, key, fallback=fallback)

    v = _parse_potential_v(cp, need)
    w_terms = _parse_terms(need("potential_w", "terms"), "potential_w.terms")
    strip = _positive(opt("potential_w", "strip_half_width", "0.5"),
                      "potential_w.strip_half_width")
    try:
        w = geometry_mod.AnalyticPotential(w_terms, strip)
    except InvalidInputError as exc:
        raise ConfigError(f"potential_w: {exc}") from exc

    n = _int_at_least(need("window", "n"), 1, "window.n")
    m = _int_at_least(need("window", "m"), 0, "window.m")
    e_raw = opt("window", "energy", "auto").strip()
    energy = None if e_raw.lower() == "auto" else _number(e_raw, "window.energy")
    grid_raw = opt("window", "energy_grid", "").split()
    energy_grid = None
    if grid_raw:
        if len(grid_raw) != 3:
            raise ConfigError("window.energy_grid needs: min max count")
        energy_grid = (_number(grid_raw[0], "window.energy_grid min"),
                       _number(grid_raw[1], "window.energy_grid max"),
                       _int_at_least(grid_raw[2], 1, "window.energy_grid count"))
        if energy_grid[2] > _ENERGY_GRID_MAX:
            raise ResolutionFailure(f"window.energy_grid count {energy_grid[2]} "
                                    f"is above the limit of {_ENERGY_GRID_MAX}")

    ceiling = _positive(need("grid", "ceiling"), "grid.ceiling")

    eps = tuple(_number(t, "cocycle.epsilons")
                for t in opt("cocycle", "epsilons", "0.2 0.1 0.05").split())
    if not eps or any(e <= 0 for e in eps):
        raise ConfigError("cocycle.epsilons must be positive numbers")
    if len(eps) > _EPSILONS_MAX:
        raise ResolutionFailure(f"cocycle.epsilons has {len(eps)} values, above "
                                f"the limit of {_EPSILONS_MAX}")
    periods = _positive(opt("cocycle", "periods", "200"), "cocycle.periods")
    z = _number(opt("cocycle", "z", "0.0"), "cocycle.z")
    z_samples = _int_at_least(opt("cocycle", "z_samples", "8"), 1,
                              "cocycle.z_samples")
    iterations = _int_at_least(opt("cocycle", "N", "20000"), 1, "cocycle.N")
    stride = _int_at_least(opt("cocycle", "renorm_stride", "8"), 1,
                           "cocycle.renorm_stride")
    seed = _number(opt("cocycle", "seed", "0"), "cocycle.seed", int)

    tol_edge = _positive(opt("tolerances", "edge", "1e-10"), "tolerances.edge")
    tol_quad = _positive(opt("tolerances", "quadrature", "1e-10"),
                         "tolerances.quadrature")
    tol_ode = _positive(opt("tolerances", "ode", "1e-8"), "tolerances.ode")

    out_dir = opt("output", "directory", "out")
    formats = tuple(opt("output", "formats", "csv json").split())
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")

    model = {k: v2 for k, v2 in cp.items("model")} if cp.has_section("model") else {}
    stokes = {k: v2 for k, v2 in cp.items("stokes")} if cp.has_section("stokes") else {}

    return RunConfig(
        potential_v=v, potential_w=w, n=n, m=m, energy=energy,
        energy_grid=energy_grid, ceiling=ceiling, epsilons=eps,
        periods=periods, z=z, z_samples=z_samples, iterations=iterations,
        renorm_stride=stride, seed=seed, tol_edge=tol_edge,
        tol_quad=tol_quad, tol_ode=tol_ode, out_dir=out_dir,
        formats=formats, model=model, stokes=stokes,
    )


def _parse_potential_v(cp, need) -> hill.PeriodicPotential:
    kind = need("potential_v", "kind").strip()
    if kind == "trig":
        terms = _parse_terms(need("potential_v", "terms"), "potential_v.terms")
        return hill.PeriodicPotential.trig(terms)
    if kind == "piecewise":
        segs = []
        for line in need("potential_v", "segments").splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ConfigError(
                    "potential_v.segments lines need: breakpoint value"
                )
            segs.append((_number(parts[0], "potential_v.segments"),
                         _number(parts[1], "potential_v.segments")))
        return hill.PeriodicPotential.piecewise(segs)
    if kind == "zero":
        return hill.PeriodicPotential.zero()
    raise ConfigError(f"potential_v.kind must be trig|piecewise|zero, got {kind!r}")


def _parse_terms(text: str, where: str):
    terms = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ConfigError(f"{where} lines need: frequency cos_amp sin_amp")
        terms.append((_number(parts[0], where, int), _number(parts[1], where),
                      _number(parts[2], where)))
    if not terms:
        raise ConfigError(f"{where} is empty")
    return terms


def _number(text: str, where: str, kind=float):
    """text as a finite kind (float, int or complex); ConfigError naming
    the key otherwise."""
    try:
        val = kind(text.strip())
    except ValueError:
        val = None
    # ints are exact: no finiteness test, which would overflow on huge ones
    if val is None or (kind is not int and not cmath.isfinite(val)):
        raise ConfigError(f"{where} must be a finite {kind.__name__}, got {text!r}")
    return val


def _positive(text: str, where: str) -> float:
    val = _number(text, where)
    if not val > 0:
        raise ConfigError(f"{where} must be positive")
    return val


def _int_at_least(text: str, least: int, where: str) -> int:
    val = _number(text, where, int)
    if val < least:
        raise ConfigError(f"{where} must be >= {least}")
    return val


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x) -> str:
    # numpy >= 2 reprs its scalars as np.float64(...); write plain numbers
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _json(name: str, obj, **kwargs) -> str:
    """Strict JSON text of obj; a NaN or infinity is a numeric failure
    naming the output file, never a bare NaN token."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteResultError(f"{name} would hold a non-finite number ({exc})") from exc


def _config_stamp(cfg: RunConfig, seed: int, name: str) -> str:
    blob = _json(name, cfg.resolved, separators=(",", ":"))
    return f"# config: {blob}\n# seed: {seed}\n"


def _write_csv(cfg: RunConfig, seed: int, name: str, header: list[str],
               rows: list[list]) -> None:
    lines = [_config_stamp(cfg, seed, name)]
    lines.append(",".join(header) + "\n")
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row) + "\n")
    _write(cfg, name, "".join(lines))


def _write_json(cfg: RunConfig, seed: int, name: str, payload: dict) -> None:
    doc = {"config": cfg.resolved, "seed": seed, "result": payload}
    _write(cfg, name, _json(name, doc, indent=2) + "\n")


def _write(cfg: RunConfig, name: str, text: str) -> None:
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# shared pipeline pieces
#
# actions and cocycle are imported inside the commands that run them, as
# concurrent.futures is in cmd_verify: geometry and stokes load neither,
# and actions does not load cocycle or the numpy.fft and numpy.random it
# brings, so each command's start-up pays only for what it runs


def _band_structure(cfg: RunConfig) -> hill.BandStructure:
    return hill.band_edges(cfg.potential_v, cfg.ceiling, tol=cfg.tol_edge)


def _windows(cfg: RunConfig, bands,
             energy: float | None = None) -> list[geometry_mod.WindowReport]:
    """Window reports for the candidate energies, in order: the override, else
    window.energy, else the grid, else the margin maximizer (none when that
    search is infeasible)."""
    energy = cfg.energy if energy is None else energy
    if energy is not None:
        candidates = [energy]
    elif cfg.energy_grid is not None:
        lo, hi, count = cfg.energy_grid
        if count == 1:
            candidates = [lo]
        else:
            step = (hi - lo) / (count - 1)
            candidates = [lo + i * step for i in range(count)]
    else:
        try:
            candidates = [geometry_mod.best_window_energy(
                cfg.potential_w, bands, cfg.n, cfg.m)]
        except InvalidInputError:
            # an infeasible automatic search is an assumption failure, not
            # a malformed config; let the caller report it
            return []
    return geometry_mod.analyze_windows(cfg.potential_w, bands, candidates,
                                        cfg.n, cfg.m)


def _no_admissible(cfg: RunConfig) -> int:
    """Name what the window search looked at, which held no admissible
    energy; returns the assumption exit code."""
    if cfg.energy is not None:
        searched = f"at the fixed energy window.energy = {_fmt(cfg.energy)}"
    elif cfg.energy_grid is not None:
        lo, hi, count = cfg.energy_grid
        searched = (f"at all {count} energies of window.energy_grid = "
                    f"{_fmt(lo)} {_fmt(hi)} {count}")
    else:
        searched = "anywhere the automatic search (window.energy = auto) looked"
    print(f"no admissible energy: window conditions unsatisfied {searched}",
          file=sys.stderr)
    return EXIT_ASSUMPTION


def _best(reports):
    """Admissible report with the largest margin (the first on ties), or None."""
    return max((r for r in reports if r.all_ok), key=lambda r: r.margin,
               default=None)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bands(cfg: RunConfig, seed: int) -> int:
    bands = _band_structure(cfg)
    rows = []
    for j, e in enumerate(bands.edges, start=1):
        gap_flag = ""
        if j % 2 == 0:
            k = j // 2
            if k <= len(bands.gap_open):
                gap_flag = "open" if bands.is_gap_open(k) else "closed"
        rows.append([j, e, gap_flag])
    _write_csv(cfg, seed, "bands.csv", ["edge_index", "energy", "gap_after"], rows)
    return EXIT_OK


def cmd_geometry(cfg: RunConfig, seed: int, energy: float | None = None) -> int:
    bands = _band_structure(cfg)
    reports = _windows(cfg, bands, energy)
    if not reports:
        return _no_admissible(cfg)
    # no admissible energy: report the first candidate's failed flags
    report = _best(reports) or reports[0]
    payload: dict = {"window_report": report.to_dict()}
    if report.all_ok:
        geom = geometry_mod.branch_points(cfg.potential_w, bands, report)
        payload["geometry"] = geom.to_dict()
        if "csv" in cfg.formats:
            for j in range(geom.n, geom.n + geom.m + 1):
                for branch in geometry_mod.real_branches(geom, j):
                    name = str(branch.label).replace("+", "p").replace("-", "m")
                    _write_csv(cfg, seed, f"branch_{name}.csv", ["kappa", "zeta"],
                               branch.table().tolist())
    _write_json(cfg, seed, "geometry.json", payload)
    return EXIT_OK


def cmd_actions(cfg: RunConfig, seed: int) -> int:
    from . import actions as actions_mod
    bands = _band_structure(cfg)
    admissible = sorted((r for r in _windows(cfg, bands) if r.all_ok),
                        key=lambda r: r.energy)
    if not admissible:
        return _no_admissible(cfg)
    rows = []
    for geom in geometry_mod.grid_geometries(cfg.potential_w, bands, admissible):
        aset = actions_mod.compute_actions(geom, tol=cfg.tol_quad)
        asym = actions_mod.lyapunov_asymptotic(aset, cfg.epsilons[0])
        logT_cols = {eps: actions_mod.total_T(aset, eps)[1]
                     for eps in cfg.epsilons}
        for label, s_val, _err in aset.entries:
            row = [geom.energy, str(label), s_val]
            for eps in cfg.epsilons:
                row.append(actions_mod.tunneling_coefficient(s_val, eps).value)
            for eps in cfg.epsilons:
                row.append(logT_cols[eps])
            row.append(asym.theta_asym)
            rows.append(row)
    header = ["E", "gap_label", "S"]
    header += [f"t_eps_{_fmt(e)}" for e in cfg.epsilons]
    header += [f"logT_eps_{_fmt(e)}" for e in cfg.epsilons]
    header += ["theta_asym"]
    _write_csv(cfg, seed, "actions.csv", header, rows)
    return EXIT_OK


def cmd_stokes(cfg: RunConfig, seed: int) -> int:
    family = cfg.stokes.get("family", "kappa")
    if family not in ("kappa", "kappa-pi"):
        raise ConfigError(f"stokes.family must be kappa|kappa-pi, got {family!r}")
    direction = _number(cfg.stokes.get("direction", "1"), "stokes.direction", int)
    if direction not in (1, -1):
        raise ConfigError(f"stokes.direction must be 1 or -1, got {direction}")
    max_length = _positive(cfg.stokes.get("max_length", "1.0"), "stokes.max_length")
    Y = cfg.potential_w.strip_half_width
    starts: list[complex] = []
    for line in cfg.stokes.get("starts", "").splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ConfigError("stokes.starts lines need: re_zeta im_zeta")
        starts.append(complex(_number(parts[0], "stokes.starts"),
                              _number(parts[1], "stokes.starts")))
        if not abs(starts[-1].imag) < Y:
            raise ConfigError(f"stokes.starts: {starts[-1]} lies outside the "
                              f"strip |Im zeta| < {Y}")
    if len(starts) > _STOKES_STARTS_MAX:
        raise ResolutionFailure(f"stokes.starts has {len(starts)} starts, above "
                                f"the limit of {_STOKES_STARTS_MAX}")
    if not starts and not _STOKES_DEFAULT_DEPTH < Y:
        raise ConfigError(f"the default Stokes starts lie {_STOKES_DEFAULT_DEPTH} "
                          f"below the axis, outside the strip |Im zeta| < {Y}; "
                          f"give stokes.starts")
    bands = _band_structure(cfg)
    rep = _best(_windows(cfg, bands))
    if rep is None:
        return _no_admissible(cfg)
    geom = geometry_mod.branch_points(cfg.potential_w, bands, rep)
    if not starts:
        # default: just below each branch point on the left half-period
        starts = [complex(zv, -_STOKES_DEFAULT_DEPTH)
                  for j, s, zv in geom.branch_zetas if s == "-"]
    rows = []
    traces = []
    for idx, start in enumerate(starts):
        line = geometry_mod.trace_stokes_line(
            geom, start, family=family, direction=direction,
            max_length=max_length,
        )
        traces.append({
            "trace": idx,
            "start": [start.real, start.imag],
            "reason": line.reason,
            "length": line.length,
            "level_drift": line.level_drift(),
            "fallbacks": line.fallbacks,
        })
        for i, (p, k) in enumerate(zip(line.points.tolist(),
                                       line.kappa.tolist())):
            rows.append([idx, i, p.real, p.imag, k.real, k.imag])
    _write_csv(cfg, seed, "stokes.csv", ["trace", "node", "re_zeta", "im_zeta",
                                         "re_kappa", "im_kappa"], rows)
    _write_json(cfg, seed, "stokes.json", {"energy": geom.energy, "family": family,
                                           "direction": direction, "traces": traces})
    return EXIT_OK


def cmd_cocycle(cfg: RunConfig, seed: int) -> int:
    from . import cocycle as cocycle_mod
    if not cfg.model:
        raise ConfigError("missing [model] section for the cocycle command")
    kind = cfg.model.get("kind", "model")
    store_blocks = cfg.model.get("store_blocks", "no")
    if store_blocks not in ("yes", "no"):
        raise ConfigError(
            f"model.store_blocks must be yes or no, got {store_blocks!r}")
    h = cocycle_mod.frequency_from_epsilon(cfg.epsilons[0])
    if kind == "model":
        coeffs = [_number(cfg.model.get(k, "0"), f"model.{k}", complex)
                  for k in ("a0", "a1", "b0", "b1")]
        family = cocycle_mod.model_matrix(*coeffs)
        params = {k: [c.real, c.imag] for k, c in zip(("a0", "a1", "b0", "b1"),
                                                      coeffs)}
    elif kind == "herman":
        lam = _number(cfg.model.get("lam", "2"), "model.lam", complex)
        n0 = _number(cfg.model.get("n0", "1"), "model.n0", int)
        alpha = _number(cfg.model.get("alpha", "0.5"), "model.alpha", complex)
        beta = _number(cfg.model.get("beta", "0"), "model.beta", complex)
        m_amp = _number(cfg.model.get("m_amp", "0"), "model.m_amp")
        family = cocycle_mod.herman_family(lam, n0, alpha, beta, m_amp,
                                           cfg.epsilons[0], seed=seed)
        params = {"lam": [lam.real, lam.imag], "n0": n0,
                  "alpha": [alpha.real, alpha.imag],
                  "beta": [beta.real, beta.imag], "m_amp": m_amp}
    else:
        raise ConfigError(f"model.kind must be model|herman, got {kind!r}")
    spec = cocycle_mod.CocycleSpec(
        family=family, h=h, N=cfg.iterations,
        renorm_stride=cfg.renorm_stride,
        z_samples=cocycle_mod.default_z_samples(cfg.z_samples),
    )
    est = cocycle_mod.cocycle_lyapunov(spec)
    payload = {
        "kind": kind,
        "parameters": params,
        "h": h,
        "theta": est.value,
        "Theta": cocycle_mod.theta_to_Theta(est.value, cfg.epsilons[0]),
        "standard_error": est.standard_error,
        "N": est.N_used,
        "z_samples": list(est.z_samples),
    }
    if store_blocks == "yes":
        payload["block_log_norms"] = [float(v) for v in est.per_block]
    _write_json(cfg, seed, "cocycle.json", payload)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, seed: int, threads: int = 1) -> int:
    from . import actions as actions_mod
    from . import cocycle as cocycle_mod
    # every cell's run length, and their sum, are bounded before the scan
    blocks = [cocycle_mod.unit_blocks(cfg.periods * 2.0 * math.pi / eps)
              for eps in cfg.epsilons]
    if sum(blocks) > cocycle_mod._COCYCLE_FACTORS_MAX:
        raise ResolutionFailure(
            f"the epsilon cells are {sum(blocks)} unit blocks in all, above "
            f"the limit of {cocycle_mod._COCYCLE_FACTORS_MAX}")
    bands = _band_structure(cfg)
    rep = _best(_windows(cfg, bands))
    if rep is None:
        return _no_admissible(cfg)
    E = rep.energy
    aset = actions_mod.compute_actions(
        geometry_mod.branch_points(cfg.potential_w, bands, rep), tol=cfg.tol_quad)
    theta_asym = actions_mod.lyapunov_asymptotic(aset, cfg.epsilons[0]).theta_asym
    eps_order = sorted(cfg.epsilons, reverse=True)

    def run_cell(eps: float):
        L = cfg.periods * 2.0 * math.pi / eps
        est = cocycle_mod.direct_lyapunov(cfg.potential_v, cfg.potential_w,
                                          eps, E, z=cfg.z, L=L,
                                          tol=cfg.tol_ode)
        return est.value, est.standard_error

    if threads > 1:
        # loaded here: concurrent.futures imports logging, which every
        # other command would pay for at start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_cell, eps_order))
    else:
        results = [run_cell(eps) for eps in eps_order]

    rows = []
    rel_errors = []
    positives = []
    for eps, (theta_num, se) in zip(eps_order, results):
        rel = abs(theta_num - theta_asym) / abs(theta_asym)
        rel_errors.append(rel)
        positives.append(theta_num > 0)
        rows.append([E, eps, theta_asym, theta_num, rel, se])
    if len(rel_errors) >= 2:
        trend_ok = all(b <= a * (1 + 1e-12)
                       for a, b in zip(rel_errors, rel_errors[1:]))
        trend = "non-increasing" if trend_ok else "increasing"
    else:
        trend_ok = True
        trend = "insufficient points"
    final_ok = rel_errors[-1] <= 0.20
    verdict = "PASS" if (all(positives) and trend_ok and final_ok) else "FAIL"
    _write_csv(cfg, seed, "verify.csv",
               ["E", "epsilon", "theta_asym", "theta_num", "rel_error",
                "standard_error"], rows)
    payload = {
        "energy": E,
        "theta_asym": theta_asym,
        "actions": aset.to_dict(),
        "cells": [
            {"epsilon": eps, "theta_num": tn, "rel_error": re_,
             "standard_error": se}
            for eps, (tn, se), re_ in zip(eps_order, results, rel_errors)
        ],
        "trend": trend,
        "all_positive": all(positives),
        "final_rel_error": rel_errors[-1],
        "verdict": verdict,
    }
    _write_json(cfg, seed, "verify.json", payload)
    print(verdict)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiaspec",
        description="Spectral geometry and Lyapunov exponents of "
                    "adiabatically modulated periodic operators",
    )
    parser.add_argument("command",
                        choices=["bands", "geometry", "actions", "stokes",
                                 "cocycle", "verify"])
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=None,
                        help="parallel epsilon cells for the verify command")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override (recorded in outputs)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="restrict output formats")
    parser.add_argument("--energy", type=float, default=None,
                        help="energy override for the geometry command")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a flag the command does not read is an input error, not a no-op
        if args.energy is not None:
            if args.command != "geometry":
                raise ConfigError(
                    f"--energy applies only to geometry, not to {args.command}")
            if not math.isfinite(args.energy):
                raise ConfigError(f"--energy must be finite, got {args.energy}")
        if args.threads is not None:
            if args.command != "verify":
                raise ConfigError(
                    f"--threads applies only to verify, not to {args.command}")
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.format is not None:
            cfg = replace(cfg, formats=(args.format,))
        seed = args.seed if args.seed is not None else cfg.seed
        os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command == "bands":
            return cmd_bands(cfg, seed)
        if args.command == "geometry":
            return cmd_geometry(cfg, seed, energy=args.energy)
        if args.command == "actions":
            return cmd_actions(cfg, seed)
        if args.command == "stokes":
            return cmd_stokes(cfg, seed)
        if args.command == "cocycle":
            return cmd_cocycle(cfg, seed)
        if args.command == "verify":
            return cmd_verify(cfg, seed, threads=args.threads or 1)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AdiaspecError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
